//! The unified error taxonomy of the execution layer.
//!
//! Every failure mode of every backend funnels into [`ExecError`], so
//! callers (the bench harness, examples, services) match on one enum instead
//! of per-backend error types: capability mismatches are
//! [`ExecError::Unsupported`] / [`ExecError::CapacityExceeded`], runtime
//! gate rejections are [`ExecError::Gate`], configured resource limits are
//! [`ExecError::Resource`].

use sliq_circuit::{CircuitError, SimulationError};
use std::error::Error;
use std::fmt;

/// Errors reported by the session/executor layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Capability negotiation failed: the requested backend cannot serve
    /// this workload at all (e.g. a non-Clifford circuit on the stabilizer
    /// backend, or sampling more qubits than an outcome word holds).
    Unsupported {
        /// The backend that declined.
        backend: &'static str,
        /// What was asked of it.
        what: String,
    },
    /// A hard capacity of the backend is exceeded — either up front at
    /// admission (qubit count, projected footprint) or mid-run when the
    /// configured byte budget is blown.  Distinct from
    /// [`ExecError::Unsupported`] so harnesses can report it as a
    /// memory-out rather than an error; the session stays usable and any
    /// pre-limit snapshot remains restorable.
    CapacityExceeded {
        /// The backend that declined.
        backend: &'static str,
        /// Which capacity was exceeded.
        resource: CapacityResource,
    },
    /// A gate the backend cannot represent was applied.
    Gate {
        /// The backend that rejected the gate.
        backend: &'static str,
        /// Human-readable gate description.
        gate: String,
    },
    /// A configured resource limit (live nodes, memory) was exceeded, or
    /// memory for a request's working buffers could not be allocated.
    Resource {
        /// The backend that hit the limit.
        backend: &'static str,
        /// Description of the limit.
        detail: String,
    },
    /// The circuit failed validation before execution started.
    Circuit(CircuitError),
    /// A circuit over a different qubit count was fed to the session.
    QubitMismatch {
        /// Qubits the session was opened with.
        session: usize,
        /// Qubits of the offending circuit.
        circuit: usize,
    },
    /// A snapshot from one backend was restored into another.
    SnapshotMismatch {
        /// The session's backend.
        session: &'static str,
        /// The snapshot's backend.
        snapshot: &'static str,
    },
    /// A snapshot from a *different session* (even of the same backend
    /// kind) was restored or discarded here; symbolic snapshots hold
    /// manager-internal handles that only their own session can interpret.
    ForeignSnapshot {
        /// The session's backend.
        backend: &'static str,
    },
}

/// The capacity that an [`ExecError::CapacityExceeded`] ran out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityResource {
    /// The backend cannot hold this many qubits at all.
    Qubits {
        /// Requested qubit count.
        requested: usize,
        /// The backend's limit.
        limit: usize,
    },
    /// The configured byte budget was exceeded (up front by the projected
    /// footprint, or mid-run by the live structures).
    Bytes {
        /// Bytes in use (or projected) when the check fired.
        used: usize,
        /// The configured budget.
        limit: usize,
    },
}

/// The stable numeric wire codes for [`ExecError`] variants, used by
/// serving front-ends to report failures to remote clients.
///
/// Codes are part of the wire protocol (see `PROTOCOL.md` at the workspace
/// root): they never change meaning and are never reused.  Codes below 16
/// are reserved for protocol-level failures that have no [`ExecError`]
/// (malformed frames, parse rejections, load shedding); execution errors
/// start at 16.
pub mod wire {
    /// The requested backend cannot serve this workload at all.
    pub const UNSUPPORTED: u16 = 16;
    /// A hard qubit capacity was exceeded.
    pub const CAPACITY_QUBITS: u16 = 17;
    /// A byte budget was exceeded (at admission or mid-run).
    pub const CAPACITY_BYTES: u16 = 18;
    /// A gate the backend cannot represent was applied.
    pub const GATE: u16 = 19;
    /// A configured resource limit (live nodes, …) was exceeded.
    pub const RESOURCE: u16 = 20;
    /// The circuit failed validation before execution started.
    pub const CIRCUIT: u16 = 21;
    /// A circuit over a different qubit count was fed to the session.
    pub const QUBIT_MISMATCH: u16 = 22;
    /// A snapshot from one backend was restored into another.
    pub const SNAPSHOT_MISMATCH: u16 = 23;
    /// A snapshot from a different session was used here.
    pub const FOREIGN_SNAPSHOT: u16 = 24;

    /// The stable name of an execution-layer wire code, `None` for codes
    /// this version does not know (including the sub-16 protocol range).
    pub fn name(code: u16) -> Option<&'static str> {
        Some(match code {
            UNSUPPORTED => "unsupported",
            CAPACITY_QUBITS => "capacity-qubits",
            CAPACITY_BYTES => "capacity-bytes",
            GATE => "gate",
            RESOURCE => "resource",
            CIRCUIT => "circuit",
            QUBIT_MISMATCH => "qubit-mismatch",
            SNAPSHOT_MISMATCH => "snapshot-mismatch",
            FOREIGN_SNAPSHOT => "foreign-snapshot",
            _ => return None,
        })
    }
}

impl ExecError {
    /// The stable numeric wire code of this error (see [`wire`]).
    ///
    /// The match is deliberately exhaustive with no `_` arm: adding an
    /// [`ExecError`] (or [`CapacityResource`]) variant fails to compile
    /// until it is assigned a wire code, so the wire protocol can never
    /// silently lag the taxonomy.
    pub fn wire_code(&self) -> u16 {
        match self {
            ExecError::Unsupported { .. } => wire::UNSUPPORTED,
            ExecError::CapacityExceeded { resource, .. } => match resource {
                CapacityResource::Qubits { .. } => wire::CAPACITY_QUBITS,
                CapacityResource::Bytes { .. } => wire::CAPACITY_BYTES,
            },
            ExecError::Gate { .. } => wire::GATE,
            ExecError::Resource { .. } => wire::RESOURCE,
            ExecError::Circuit(_) => wire::CIRCUIT,
            ExecError::QubitMismatch { .. } => wire::QUBIT_MISMATCH,
            ExecError::SnapshotMismatch { .. } => wire::SNAPSHOT_MISMATCH,
            ExecError::ForeignSnapshot { .. } => wire::FOREIGN_SNAPSHOT,
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Unsupported { backend, what } => {
                write!(f, "{backend} does not support {what}")
            }
            ExecError::CapacityExceeded { backend, resource } => match resource {
                CapacityResource::Qubits { requested, limit } => write!(
                    f,
                    "{backend} is limited to {limit} qubits ({requested} requested)"
                ),
                CapacityResource::Bytes { used, limit } => write!(
                    f,
                    "{backend} exceeded its memory budget: {used} bytes in use, limit {limit}"
                ),
            },
            ExecError::Gate { backend, gate } => {
                write!(f, "{backend} does not support gate {gate}")
            }
            ExecError::Resource { backend, detail } => {
                write!(f, "{backend} exceeded a resource limit: {detail}")
            }
            ExecError::Circuit(e) => write!(f, "invalid circuit: {e}"),
            ExecError::QubitMismatch { session, circuit } => write!(
                f,
                "session holds {session} qubits but the circuit needs {circuit}"
            ),
            ExecError::SnapshotMismatch { session, snapshot } => write!(
                f,
                "cannot restore a {snapshot} snapshot into a {session} session"
            ),
            ExecError::ForeignSnapshot { backend } => write!(
                f,
                "snapshot belongs to a different {backend} session and cannot be used here"
            ),
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimulationError> for ExecError {
    fn from(value: SimulationError) -> Self {
        match value {
            SimulationError::UnsupportedGate { backend, gate } => ExecError::Gate { backend, gate },
            SimulationError::ResourceLimit { backend, detail } => {
                ExecError::Resource { backend, detail }
            }
            SimulationError::CapacityExceeded {
                backend,
                used_bytes,
                limit_bytes,
            } => ExecError::CapacityExceeded {
                backend,
                resource: CapacityResource::Bytes {
                    used: used_bytes,
                    limit: limit_bytes,
                },
            },
            SimulationError::InvalidCircuit(e) => ExecError::Circuit(e),
        }
    }
}

impl From<CircuitError> for ExecError {
    fn from(value: CircuitError) -> Self {
        ExecError::Circuit(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_backend_and_problem() {
        let e = ExecError::Unsupported {
            backend: "stabilizer",
            what: "non-Clifford circuits".into(),
        };
        assert!(e.to_string().contains("stabilizer"));
        let e = ExecError::CapacityExceeded {
            backend: "dense",
            resource: CapacityResource::Qubits {
                requested: 40,
                limit: 30,
            },
        };
        assert!(e.to_string().contains("40"));
        assert!(e.to_string().contains("30"));
        let e = ExecError::CapacityExceeded {
            backend: "bitslice",
            resource: CapacityResource::Bytes {
                used: 2048,
                limit: 1024,
            },
        };
        assert!(e.to_string().contains("2048"));
        assert!(e.to_string().contains("memory budget"));
    }

    #[test]
    fn wire_codes_round_trip_over_every_variant() {
        // One instance per variant (and per CapacityResource shape).  When a
        // new ExecError variant is added, `wire_code`'s exhaustive match
        // already forces a code decision at compile time; keep this list in
        // step so the code's name and uniqueness are tested too.
        let every: Vec<ExecError> = vec![
            ExecError::Unsupported {
                backend: "stabilizer",
                what: "non-Clifford circuits".into(),
            },
            ExecError::CapacityExceeded {
                backend: "dense",
                resource: CapacityResource::Qubits {
                    requested: 40,
                    limit: 30,
                },
            },
            ExecError::CapacityExceeded {
                backend: "bitslice",
                resource: CapacityResource::Bytes {
                    used: 2048,
                    limit: 1024,
                },
            },
            ExecError::Gate {
                backend: "stabilizer",
                gate: "t q[0]".into(),
            },
            ExecError::Resource {
                backend: "bitslice",
                detail: "nodes".into(),
            },
            ExecError::Circuit(CircuitError::NotInvertible { gate: "m".into() }),
            ExecError::QubitMismatch {
                session: 3,
                circuit: 4,
            },
            ExecError::SnapshotMismatch {
                session: "qmdd",
                snapshot: "dense",
            },
            ExecError::ForeignSnapshot { backend: "qmdd" },
        ];
        let mut seen = std::collections::BTreeSet::new();
        for error in &every {
            let code = error.wire_code();
            assert!(code >= 16, "execution codes start at 16, got {code}");
            assert!(wire::name(code).is_some(), "code {code} has no stable name");
            assert!(seen.insert(code), "code {code} assigned twice");
        }
        // The reserved protocol range and unknown codes have no name.
        assert_eq!(wire::name(0), None);
        assert_eq!(wire::name(15), None);
        assert_eq!(wire::name(u16::MAX), None);
    }

    #[test]
    fn simulation_errors_map_onto_the_taxonomy() {
        let gate: ExecError = SimulationError::UnsupportedGate {
            backend: "stabilizer",
            gate: "t q[0]".into(),
        }
        .into();
        assert!(matches!(gate, ExecError::Gate { .. }));
        let limit: ExecError = SimulationError::ResourceLimit {
            backend: "bitslice",
            detail: "nodes".into(),
        }
        .into();
        assert!(matches!(limit, ExecError::Resource { .. }));
    }
}
