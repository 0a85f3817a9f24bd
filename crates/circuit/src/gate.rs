//! The quantum gate library.
//!
//! The gate set is exactly Table I of the paper — a superset of both the
//! Clifford+T and the Toffoli+Hadamard universal gate sets — plus the
//! inverse phase gates S† and T† as documented extensions (their update rules
//! are the inverse permutations of S and T and they keep the algebraic
//! representation closed).

use crate::error::CircuitError;
use std::fmt;

/// A quantum gate applied to specific qubits.
///
/// Qubit indices are zero-based.  Multi-controlled gates carry their full
/// control list; a [`Gate::Toffoli`] with zero controls degenerates to
/// [`Gate::X`] and a [`Gate::Fredkin`] with zero controls is a plain SWAP.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Pauli-X (NOT) on the target qubit.
    X(usize),
    /// Pauli-Y on the target qubit.
    Y(usize),
    /// Pauli-Z on the target qubit.
    Z(usize),
    /// Hadamard on the target qubit.
    H(usize),
    /// Phase gate S = diag(1, i).
    S(usize),
    /// Inverse phase gate S† = diag(1, −i) (extension).
    Sdg(usize),
    /// T gate = diag(1, ω) with ω = e^{iπ/4}.
    T(usize),
    /// Inverse T gate T† = diag(1, ω⁻¹) (extension).
    Tdg(usize),
    /// X-axis π/2 rotation, `Rx(π/2) = (1/√2)[[1, −i], [−i, 1]]`.
    RxPi2(usize),
    /// Y-axis π/2 rotation, `Ry(π/2) = (1/√2)[[1, −1], [1, 1]]`.
    RyPi2(usize),
    /// Controlled-NOT.
    Cnot {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// Controlled-Z.
    Cz {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// Multi-controlled X (Toffoli for two controls).
    Toffoli {
        /// Control qubits (any number, including zero or one).
        controls: Vec<usize>,
        /// Target qubit.
        target: usize,
    },
    /// Multi-controlled SWAP (Fredkin for one control).
    Fredkin {
        /// Control qubits (any number, including zero).
        controls: Vec<usize>,
        /// First swap target.
        target1: usize,
        /// Second swap target.
        target2: usize,
    },
    /// Mid-circuit computational-basis measurement: collapse `qubit` and
    /// record the outcome in classical bit `clbit`.
    Measure {
        /// Qubit to measure.
        qubit: usize,
        /// Classical bit receiving the outcome.
        clbit: usize,
    },
    /// Reset `qubit` to |0⟩ (measure, then flip on outcome 1).
    Reset {
        /// Qubit to reset.
        qubit: usize,
    },
    /// Classical feed-forward: apply `gate` iff the classical bits
    /// `offset..offset + width` (little-endian, bit `j` of `value` compared
    /// against clbit `offset + j`) currently equal `value`.
    Conditional {
        /// First classical bit of the condition register.
        offset: usize,
        /// Number of classical bits compared (1..=64).
        width: usize,
        /// The register value that enables the gate.
        value: u64,
        /// The conditioned gate (never itself dynamic).
        gate: Box<Gate>,
    },
}

impl Gate {
    /// A short lowercase mnemonic (matches the OpenQASM spelling where one
    /// exists).
    pub fn name(&self) -> &'static str {
        match self {
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::H(_) => "h",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::T(_) => "t",
            Gate::Tdg(_) => "tdg",
            Gate::RxPi2(_) => "rx_pi2",
            Gate::RyPi2(_) => "ry_pi2",
            Gate::Cnot { .. } => "cx",
            Gate::Cz { .. } => "cz",
            Gate::Toffoli { .. } => "ccx",
            Gate::Fredkin { .. } => "cswap",
            Gate::Measure { .. } => "measure",
            Gate::Reset { .. } => "reset",
            Gate::Conditional { .. } => "if",
        }
    }

    /// All qubits this gate touches (controls before targets).
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::H(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::T(q)
            | Gate::Tdg(q)
            | Gate::RxPi2(q)
            | Gate::RyPi2(q) => vec![*q],
            Gate::Cnot { control, target } | Gate::Cz { control, target } => {
                vec![*control, *target]
            }
            Gate::Toffoli { controls, target } => {
                let mut v = controls.clone();
                v.push(*target);
                v
            }
            Gate::Fredkin {
                controls,
                target1,
                target2,
            } => {
                let mut v = controls.clone();
                v.push(*target1);
                v.push(*target2);
                v
            }
            Gate::Measure { qubit, .. } | Gate::Reset { qubit } => vec![*qubit],
            Gate::Conditional { gate, .. } => gate.qubits(),
        }
    }

    /// The largest qubit index used by the gate.
    pub fn max_qubit(&self) -> usize {
        self.qubits().into_iter().max().unwrap_or(0)
    }

    /// Returns `true` if the gate belongs to the Clifford group (and can be
    /// simulated by the stabilizer baseline).
    ///
    /// Measurement and reset are Clifford operations (the tableau tracks
    /// collapse natively); a conditional is Clifford iff its body is.
    pub fn is_clifford(&self) -> bool {
        match self {
            Gate::X(_)
            | Gate::Y(_)
            | Gate::Z(_)
            | Gate::H(_)
            | Gate::S(_)
            | Gate::Sdg(_)
            | Gate::Cnot { .. }
            | Gate::Cz { .. }
            | Gate::Measure { .. }
            | Gate::Reset { .. } => true,
            Gate::Conditional { gate, .. } => gate.is_clifford(),
            _ => false,
        }
    }

    /// Returns `true` for the dynamic-circuit operations — measurement,
    /// reset, and classically-conditioned gates — which are interpreted by
    /// the executor rather than applied as unitaries by a backend.
    pub fn is_dynamic(&self) -> bool {
        matches!(
            self,
            Gate::Measure { .. } | Gate::Reset { .. } | Gate::Conditional { .. }
        )
    }

    /// The classical bits this operation reads or writes, as a
    /// `(offset, width)` range (`None` for purely quantum gates).
    pub fn clbit_range(&self) -> Option<(usize, usize)> {
        match self {
            Gate::Measure { clbit, .. } => Some((*clbit, 1)),
            Gate::Conditional { offset, width, .. } => Some((*offset, *width)),
            _ => None,
        }
    }

    /// Returns `true` if the gate matrix contains imaginary entries, i.e. the
    /// four bit-slice vector families become mutually dependent (see the
    /// discussion under Table II in the paper).
    pub fn involves_imaginary(&self) -> bool {
        match self {
            Gate::Y(_) | Gate::S(_) | Gate::Sdg(_) | Gate::T(_) | Gate::Tdg(_) | Gate::RxPi2(_) => {
                true
            }
            Gate::Conditional { gate, .. } => gate.involves_imaginary(),
            _ => false,
        }
    }

    /// Returns `true` if applying the gate multiplies the state by a `1/√2`
    /// factor (i.e. increments the algebraic `k` parameter).
    pub fn scales_by_inv_sqrt2(&self) -> bool {
        match self {
            Gate::H(_) | Gate::RxPi2(_) | Gate::RyPi2(_) => true,
            Gate::Conditional { gate, .. } => gate.scales_by_inv_sqrt2(),
            _ => false,
        }
    }

    /// The inverse gate, when it exists inside the supported set.
    ///
    /// `Rx(π/2)` and `Ry(π/2)` have inverses outside the supported gate set
    /// and return `None`; measurement, reset and conditionals are not
    /// unitary and have no inverse.
    pub fn inverse(&self) -> Option<Gate> {
        match self {
            Gate::S(q) => Some(Gate::Sdg(*q)),
            Gate::Sdg(q) => Some(Gate::S(*q)),
            Gate::T(q) => Some(Gate::Tdg(*q)),
            Gate::Tdg(q) => Some(Gate::T(*q)),
            Gate::RxPi2(_) | Gate::RyPi2(_) => None,
            Gate::Measure { .. } | Gate::Reset { .. } | Gate::Conditional { .. } => None,
            other => Some(other.clone()),
        }
    }

    /// Returns `true` if no two operand qubits coincide.
    pub fn operands_distinct(&self) -> bool {
        let mut qs = self.qubits();
        qs.sort_unstable();
        qs.windows(2).all(|w| w[0] != w[1])
    }

    /// Checks that every operand is one of `num_qubits` qubits and that no
    /// two operands coincide — the precondition of every simulator's update
    /// rule.  `gate_index` is the gate's position, reported in the error.
    ///
    /// # Errors
    ///
    /// [`CircuitError::QubitOutOfRange`] or
    /// [`CircuitError::DuplicateOperands`].
    pub fn check_operands(&self, num_qubits: usize, gate_index: usize) -> Result<(), CircuitError> {
        if let Some(qubit) = self.qubits().into_iter().find(|&q| q >= num_qubits) {
            return Err(CircuitError::QubitOutOfRange {
                qubit,
                num_qubits,
                gate_index,
            });
        }
        if !self.operands_distinct() {
            return Err(CircuitError::DuplicateOperands {
                gate_index,
                gate: self.to_string(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Measure { qubit, clbit } => write!(f, "measure q[{qubit}] -> c[{clbit}]"),
            Gate::Reset { qubit } => write!(f, "reset q[{qubit}]"),
            Gate::Conditional {
                offset,
                width,
                value,
                gate,
            } => write!(f, "if (c[{offset}+:{width}]=={value}) {gate}"),
            _ => {
                let qs: Vec<String> = self.qubits().iter().map(|q| format!("q[{q}]")).collect();
                write!(f, "{} {}", self.name(), qs.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_lists() {
        assert_eq!(Gate::H(3).qubits(), vec![3]);
        assert_eq!(
            Gate::Cnot {
                control: 1,
                target: 4
            }
            .qubits(),
            vec![1, 4]
        );
        assert_eq!(
            Gate::Toffoli {
                controls: vec![0, 1, 2],
                target: 5
            }
            .qubits(),
            vec![0, 1, 2, 5]
        );
        assert_eq!(
            Gate::Fredkin {
                controls: vec![7],
                target1: 2,
                target2: 3
            }
            .max_qubit(),
            7
        );
    }

    #[test]
    fn clifford_classification() {
        assert!(Gate::H(0).is_clifford());
        assert!(Gate::Cz {
            control: 0,
            target: 1
        }
        .is_clifford());
        assert!(!Gate::T(0).is_clifford());
        assert!(!Gate::Toffoli {
            controls: vec![0, 1],
            target: 2
        }
        .is_clifford());
    }

    #[test]
    fn imaginary_and_scaling_flags_match_the_paper() {
        // "quantum gates Y, S, T, and Rx(π/2) involve imaginary parts"
        for g in [Gate::Y(0), Gate::S(0), Gate::T(0), Gate::RxPi2(0)] {
            assert!(g.involves_imaginary(), "{g}");
        }
        for g in [Gate::X(0), Gate::Z(0), Gate::H(0), Gate::RyPi2(0)] {
            assert!(!g.involves_imaginary(), "{g}");
        }
        // "k … incremented by 1 for Hadamard, Rx(π/2), and Ry(π/2)"
        for g in [Gate::H(0), Gate::RxPi2(0), Gate::RyPi2(0)] {
            assert!(g.scales_by_inv_sqrt2(), "{g}");
        }
        assert!(!Gate::S(0).scales_by_inv_sqrt2());
    }

    #[test]
    fn inverses() {
        assert_eq!(Gate::S(2).inverse(), Some(Gate::Sdg(2)));
        assert_eq!(Gate::Tdg(2).inverse(), Some(Gate::T(2)));
        assert_eq!(Gate::H(2).inverse(), Some(Gate::H(2)));
        assert_eq!(Gate::RxPi2(2).inverse(), None);
    }

    #[test]
    fn operand_distinctness() {
        assert!(Gate::Cnot {
            control: 0,
            target: 1
        }
        .operands_distinct());
        assert!(!Gate::Cnot {
            control: 1,
            target: 1
        }
        .operands_distinct());
        assert!(!Gate::Fredkin {
            controls: vec![2],
            target1: 2,
            target2: 3
        }
        .operands_distinct());
    }

    #[test]
    fn display_is_readable() {
        let g = Gate::Cnot {
            control: 0,
            target: 1,
        };
        assert_eq!(g.to_string(), "cx q[0], q[1]");
        assert_eq!(
            Gate::Measure { qubit: 0, clbit: 1 }.to_string(),
            "measure q[0] -> c[1]"
        );
        assert_eq!(Gate::Reset { qubit: 3 }.to_string(), "reset q[3]");
    }

    #[test]
    fn dynamic_operations_classify_and_delegate() {
        let m = Gate::Measure { qubit: 2, clbit: 0 };
        let r = Gate::Reset { qubit: 2 };
        let cond_x = Gate::Conditional {
            offset: 0,
            width: 1,
            value: 1,
            gate: Box::new(Gate::X(1)),
        };
        let cond_t = Gate::Conditional {
            offset: 0,
            width: 2,
            value: 3,
            gate: Box::new(Gate::T(1)),
        };
        for g in [&m, &r, &cond_x, &cond_t] {
            assert!(g.is_dynamic(), "{g}");
            assert_eq!(g.inverse(), None, "{g}");
        }
        assert!(!Gate::H(0).is_dynamic());
        // Measurement/reset are Clifford; a conditional is Clifford iff its
        // body is (so dynamic Clifford circuits route to the stabilizer).
        assert!(m.is_clifford() && r.is_clifford() && cond_x.is_clifford());
        assert!(!cond_t.is_clifford());
        assert!(cond_t.involves_imaginary() && !cond_x.involves_imaginary());
        assert_eq!(m.qubits(), vec![2]);
        assert_eq!(cond_x.qubits(), vec![1]);
        assert_eq!(m.clbit_range(), Some((0, 1)));
        assert_eq!(cond_t.clbit_range(), Some((0, 2)));
        assert_eq!(r.clbit_range(), None);
    }
}
