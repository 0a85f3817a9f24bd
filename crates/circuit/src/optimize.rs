//! Peephole circuit optimisation.
//!
//! Benchmark circuits (randomly generated ones in particular) contain many
//! trivially redundant gate pairs; removing them before simulation reduces
//! work for every backend without changing the state.  Two rewrite rules are
//! applied until a fixed point is reached:
//!
//! 1. **Inverse-pair cancellation** — a gate immediately followed (on exactly
//!    the same qubits, with no interfering gate in between) by its inverse is
//!    removed, e.g. `H·H`, `X·X`, `CNOT·CNOT`, `S·S†`, `T·T†`.
//! 2. **Phase merging** — two adjacent identical phase gates merge into the
//!    stronger one: `S·S → Z`, `S†·S† → Z`, `T·T → S`, `T†·T† → S†`.
//!
//! A single left-to-right pass is conservative: cancelling a pair clears the
//! per-qubit "last gate" tracking, so gates that become adjacent only
//! *because* an inner pair vanished (e.g. the outer `H…H` of `H·X·X·H`) are
//! not rewritten in the same pass.  [`optimize`] therefore iterates
//! `one_pass` until a full pass changes nothing and reports the number of
//! passes in [`OptimizeStats::passes`].  This fixed-point iteration is what
//! makes the output usable as a **canonical form**: circuits that differ
//! only by nested redundant pairs (at any depth) converge to the same gate
//! list, which is what the executor's result cache fingerprints
//! (`sliq_exec::cache`).

use crate::circuit::Circuit;
use crate::gate::Gate;

/// Statistics reported by [`optimize`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// Number of gates removed by inverse-pair cancellation (counts both
    /// gates of each pair).
    pub cancelled: usize,
    /// Number of gate pairs merged into a single stronger phase gate.
    pub merged: usize,
    /// Number of rewrite passes executed before the fixed point, including
    /// the final pass that confirmed nothing changed (so the minimum is 1).
    pub passes: usize,
}

fn merge_phases(a: &Gate, b: &Gate) -> Option<Gate> {
    match (a, b) {
        (Gate::S(p), Gate::S(q)) | (Gate::Sdg(p), Gate::Sdg(q)) if p == q => Some(Gate::Z(*p)),
        (Gate::T(p), Gate::T(q)) if p == q => Some(Gate::S(*p)),
        (Gate::Tdg(p), Gate::Tdg(q)) if p == q => Some(Gate::Sdg(*p)),
        _ => None,
    }
}

/// Applies one left-to-right pass of the rewrite rules.  Returns the new gate
/// list and the statistics of this pass.
fn one_pass(gates: &[Gate], num_qubits: usize) -> (Vec<Gate>, OptimizeStats) {
    let mut stats = OptimizeStats::default();
    // `output` holds kept gates; `last_touch[q]` is the index in `output` of
    // the most recent kept gate acting on qubit q.
    let mut output: Vec<Option<Gate>> = Vec::with_capacity(gates.len());
    let mut last_touch: Vec<Option<usize>> = vec![None; num_qubits];
    for gate in gates {
        // Dynamic operations (measurement, reset, conditionals) are
        // optimisation barriers: collapse and feed-forward make the
        // state observable mid-circuit, so no gate may be cancelled or
        // merged across them.  Conservatively clear *all* tracking —
        // a conditional's effective support depends on runtime classical
        // state, not just its static qubit list.
        if gate.is_dynamic() {
            output.push(Some(gate.clone()));
            for touch in last_touch.iter_mut() {
                *touch = None;
            }
            continue;
        }
        let qubits = gate.qubits();
        // Find the unique previous gate touching any of this gate's qubits,
        // if all those qubits last saw the *same* gate (otherwise something
        // interferes and no rewrite is safe).
        let previous: Option<usize> = {
            let indices: Vec<Option<usize>> = qubits.iter().map(|&q| last_touch[q]).collect();
            match indices.first() {
                Some(&first) if indices.iter().all(|&i| i == first) => first,
                _ => None,
            }
        };
        if let Some(index) = previous {
            if let Some(prev_gate) = output[index].clone() {
                let same_operands = prev_gate.qubits() == qubits;
                if same_operands {
                    if prev_gate.inverse().as_ref() == Some(gate) {
                        // Cancel the pair.
                        output[index] = None;
                        for &q in &qubits {
                            last_touch[q] = None;
                        }
                        stats.cancelled += 2;
                        continue;
                    }
                    if let Some(merged) = merge_phases(&prev_gate, gate) {
                        output[index] = Some(merged);
                        stats.merged += 1;
                        continue;
                    }
                }
            }
        }
        let index = output.len();
        output.push(Some(gate.clone()));
        for q in qubits {
            last_touch[q] = Some(index);
        }
    }
    (output.into_iter().flatten().collect(), stats)
}

/// Optimises `circuit` by repeatedly applying the rewrite rules until a full
/// pass changes nothing (the fixed point), returning the optimised circuit
/// and cumulative statistics.
///
/// Because every rewrite strictly shrinks the gate list, the iteration
/// terminates after at most `len/2 + 1` passes, and the result is a
/// *canonical form* with respect to the rewrite rules: two circuits that
/// differ only by redundant inverse pairs or unmerged phase pairs — nested
/// to any depth — produce the same output gate list.
pub fn optimize(circuit: &Circuit) -> (Circuit, OptimizeStats) {
    let mut gates: Vec<Gate> = circuit.gates().to_vec();
    let mut total = OptimizeStats::default();
    loop {
        let (next, stats) = one_pass(&gates, circuit.num_qubits());
        total.cancelled += stats.cancelled;
        total.merged += stats.merged;
        total.passes += 1;
        let changed = next.len() != gates.len() || stats.merged > 0;
        gates = next;
        if !changed {
            break;
        }
    }
    let mut optimized = Circuit::with_clbits(circuit.num_qubits(), circuit.num_clbits());
    optimized.extend(gates);
    (optimized, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancels_adjacent_self_inverse_pairs() {
        let mut c = Circuit::new(2);
        c.h(0).h(0).x(1).cx(0, 1).cx(0, 1).x(1);
        let (optimized, stats) = optimize(&c);
        assert!(optimized.is_empty(), "{optimized}");
        assert_eq!(stats.cancelled, 6);
    }

    #[test]
    fn cancels_dagger_pairs_and_merges_phases() {
        let mut c = Circuit::new(1);
        c.s(0).sdg(0).t(0).t(0).t(0).t(0);
        let (optimized, stats) = optimize(&c);
        // S·S† cancels; T·T → S twice, then S·S → Z.
        assert_eq!(optimized.gates(), &[Gate::Z(0)]);
        assert!(stats.cancelled >= 2);
        assert!(stats.merged >= 3);
    }

    #[test]
    fn does_not_cancel_across_interfering_gates() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).h(0);
        let (optimized, _) = optimize(&c);
        assert_eq!(optimized.len(), 3, "the CNOT blocks the cancellation");

        let mut d = Circuit::new(2);
        d.cx(0, 1).x(0).cx(0, 1);
        let (optimized, _) = optimize(&d);
        assert_eq!(optimized.len(), 3, "the X on the control interferes");
    }

    #[test]
    fn does_not_confuse_gates_with_different_operands() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 0);
        let (optimized, _) = optimize(&c);
        assert_eq!(optimized.len(), 2);
        let mut d = Circuit::new(3);
        d.ccx(0, 1, 2).ccx(1, 0, 2);
        let (optimized_d, _) = optimize(&d);
        // Control lists [0,1] and [1,0] describe the same operation but with
        // different operand order; the conservative pass keeps them.
        assert_eq!(optimized_d.len(), 2);
    }

    #[test]
    fn rx_pairs_are_left_alone() {
        // Rx(π/2) is not self-inverse and has no inverse in the gate set.
        let mut c = Circuit::new(1);
        c.rx_pi2(0).rx_pi2(0);
        let (optimized, stats) = optimize(&c);
        assert_eq!(optimized.len(), 2);
        assert_eq!(stats.cancelled, 0);
        assert_eq!(stats.merged, 0);
        // An already-canonical circuit is confirmed in a single pass.
        assert_eq!(stats.passes, 1);
    }

    #[test]
    fn nested_pairs_need_and_get_multiple_passes() {
        // H·(X·X)·H on one qubit: the outer H pair only becomes adjacent
        // once the inner X pair is gone, which a single conservative pass
        // cannot see — the fixed-point loop must run again.
        let mut c = Circuit::new(1);
        c.h(0).x(0).x(0).h(0);
        let (optimized, stats) = optimize(&c);
        assert!(optimized.is_empty(), "{optimized}");
        assert_eq!(stats.cancelled, 4);
        assert!(
            stats.passes >= 3,
            "two rewriting passes plus the confirming pass: {stats:?}"
        );

        // Three levels of nesting converge too.
        let mut d = Circuit::new(2);
        d.cx(0, 1).h(0).s(1).sdg(1).h(0).cx(0, 1);
        let (optimized_d, stats_d) = optimize(&d);
        assert!(optimized_d.is_empty(), "{optimized_d}");
        assert_eq!(stats_d.cancelled, 6);
    }

    #[test]
    fn dynamic_operations_are_optimisation_barriers() {
        // H…H around a measurement must NOT cancel: the measurement
        // collapses the state in between.
        let mut c = Circuit::new(1);
        c.h(0).measure(0, 0).h(0);
        let (optimized, stats) = optimize(&c);
        assert_eq!(optimized.len(), 3, "{optimized}");
        assert_eq!(stats.cancelled, 0);
        assert_eq!(optimized.num_clbits(), 1, "clbits survive optimisation");

        // Same for reset and for conditionals — even on *other* qubits,
        // since feed-forward couples them through the classical register.
        let mut d = Circuit::new(2);
        d.x(1).reset(0).x(1);
        let (optimized_d, _) = optimize(&d);
        assert_eq!(optimized_d.len(), 3);

        let mut e = Circuit::new(2);
        e.measure(0, 0).x(1).if_bit(0, Gate::Z(0)).x(1);
        let (optimized_e, _) = optimize(&e);
        assert_eq!(optimized_e.len(), 4);

        // Redundancy strictly between barriers still cancels.
        let mut f = Circuit::new(1);
        f.measure(0, 0).h(0).h(0).measure(0, 0);
        let (optimized_f, stats_f) = optimize(&f);
        assert_eq!(optimized_f.len(), 2);
        assert_eq!(stats_f.cancelled, 2);
    }

    #[test]
    fn equivalent_redundant_circuits_share_a_canonical_form() {
        // The executor's result cache keys on the canonical gate list, so
        // circuits written with different redundant padding must converge
        // to the identical output.
        let mut plain = Circuit::new(2);
        plain.h(0).cx(0, 1).t(1);
        let mut padded = Circuit::new(2);
        padded
            .h(0)
            .x(1)
            .h(1)
            .h(1) // nested: H·H cancels, exposing X·X
            .x(1)
            .cx(0, 1)
            .t(1)
            .tdg(1) // T·T† cancels, leaving the trailing T
            .t(1);
        let (canon_plain, _) = optimize(&plain);
        let (canon_padded, _) = optimize(&padded);
        assert_eq!(canon_plain.gates(), canon_padded.gates());
    }
}
