//! # sliq-core
//!
//! The bit-sliced BDD quantum circuit simulator — a from-scratch Rust
//! implementation of the method of *"Bit-Slicing the Hilbert Space: Scaling
//! Up Accurate Quantum Circuit Simulation to a New Level"* (DAC 2021).
//!
//! Key ideas reproduced here:
//!
//! 1. **Algebraic amplitudes** (`sliq-math`): every amplitude is
//!    `(a·ω³ + b·ω² + c·ω + d)/√2ᵏ` with integers, so Clifford+T /
//!    Toffoli+Hadamard circuits simulate without any precision loss.
//! 2. **Bit-slicing** ([`BitSliceState`]): the four coefficient vectors of
//!    length `2ⁿ` are stored bit-by-bit as `4·r` BDDs over the `n` qubit
//!    variables, with the width `r` growing on demand.
//! 3. **Gate formulas instead of matrices** ([`BitSliceSimulator`]): each
//!    gate of the paper's Table I updates the slices with pre-characterised
//!    Boolean formulas (symbolic ripple-carry adders), replacing
//!    matrix–vector multiplication by BDD manipulation.
//! 4. **Exact measurement** : outcome probabilities are exact weighted SAT
//!    counts accumulated in `x + y·√2` integer form (machine words while
//!    they fit, big integers beyond); only the final conversion to `f64`
//!    rounds (mirroring the paper's use of MPFR).
//!
//! ```
//! use sliq_circuit::{Circuit, Simulator};
//! use sliq_core::BitSliceSimulator;
//!
//! // A 3-qubit GHZ state: H then a CNOT chain.
//! let mut circuit = Circuit::new(3);
//! circuit.h(0).cx(0, 1).cx(1, 2);
//! let mut sim = BitSliceSimulator::new(3);
//! sim.run(&circuit)?;
//! assert!((sim.probability_of_basis_state(&[true, true, true]) - 0.5).abs() < 1e-12);
//! assert!(sim.is_exactly_normalized());
//! # Ok::<(), sliq_circuit::SimulationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod gates;
mod measure;
mod simulator;
mod state;

pub use measure::ConditionedView;
pub use simulator::{BitSliceLimits, BitSliceSimulator};
pub use state::{BitSliceState, Family, StateSnapshot};
