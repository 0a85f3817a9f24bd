//! Symbolic two's-complement arithmetic over bit-sliced vectors.
//!
//! Every arithmetic gate of Table II boils down to a ripple-carry adder whose
//! sum and carry are the Boolean functions
//!
//! ```text
//! Sum(A, B, C) = A ⊕ B ⊕ C
//! Car(A, B, C) = A·B ∨ (A ∨ B)·C
//! ```
//!
//! applied slice-wise, with a per-row conditional complement (for the
//! subtracted operand) folded into the initial carry — exactly the
//! construction the paper derives for the Hadamard gate in Proposition 1.
//!
//! Only the adder-shaped stages live here.  Row permutations and the
//! phase gates' family selection call the kernel's
//! [`sliq_bdd::Manager::controlled_flip`], [`sliq_bdd::Manager::mux`] and
//! [`sliq_bdd::Manager::cofactor`] directly.

use sliq_bdd::{Manager, NodeId};

/// `Sum(a, b, c) = a ⊕ b ⊕ c` — the full-adder sum function over BDDs,
/// computed by the manager's single-pass three-operand XOR.
pub fn sum(mgr: &Manager, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
    mgr.xor3(a, b, c)
}

/// `Car(a, b, c) = a·b ∨ (a ∨ b)·c` — the full-adder carry function, which
/// is exactly the three-operand majority, computed in a single pass.
pub fn carry(mgr: &Manager, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
    mgr.maj(a, b, c)
}

/// Slice-wise ripple-carry addition `A + B + carry_in` of two equally long
/// bit-sliced vectors.  The caller is responsible for sign-extending the
/// operands so that no overflow can occur (one extra slice suffices for a
/// single addition).
pub fn add_sliced(mgr: &Manager, a: &[NodeId], b: &[NodeId], carry_in: NodeId) -> Vec<NodeId> {
    debug_assert_eq!(a.len(), b.len(), "operands must have equal width");
    let mut out = Vec::with_capacity(a.len());
    let mut c = carry_in;
    for j in 0..a.len() {
        out.push(sum(mgr, a[j], b[j], c));
        if j + 1 < a.len() {
            c = carry(mgr, a[j], b[j], c);
        }
    }
    out
}

/// Per-row conditional negation of a bit-sliced vector: rows where `cond`
/// holds are replaced by their two's-complement negation, other rows are
/// unchanged.
///
/// Complementing every slice where `cond` holds and adding `cond` as the
/// initial carry gives `out_j = v_j ⊕ cond ⊕ c_j` with the carry recurrence
/// `c_0 = cond`, `c_{j+1} = c_j ∧ ¬v_j` (the `+1` ripple only propagates
/// through zero bits of `v`), so each slice costs one three-operand XOR and
/// one AND instead of a full adder step.  With the kernel's complement
/// edges, `¬v_j` is an O(1) bit flip, so the per-slice negations allocate
/// no BDD work at all.
pub fn negate_where(mgr: &Manager, v: &[NodeId], cond: NodeId) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(v.len());
    let mut carry = cond;
    for (j, &f) in v.iter().enumerate() {
        out.push(mgr.xor3(f, cond, carry));
        if j + 1 < v.len() {
            let not_f = mgr.not(f);
            carry = mgr.and(carry, not_f);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluates a bit-sliced vector at a basis assignment as a signed
    /// integer (two's complement, MSB is the sign slice).
    fn value_at(mgr: &Manager, v: &[NodeId], assignment: &[bool]) -> i64 {
        let mut out = 0i64;
        for (j, &f) in v.iter().enumerate() {
            if mgr.eval(f, assignment) {
                if j == v.len() - 1 {
                    out -= 1 << j;
                } else {
                    out += 1 << j;
                }
            }
        }
        out
    }

    /// Builds a 4-bit constant vector (same value at every row).
    fn constant_vector(mgr: &Manager, value: i64, width: usize) -> Vec<NodeId> {
        (0..width)
            .map(|j| mgr.constant((value >> j) & 1 == 1))
            .collect()
    }

    #[test]
    fn adder_matches_integer_addition() {
        let mgr = Manager::new(2);
        for x in -4i64..4 {
            for y in -4i64..4 {
                // 5-bit two's complement holds the sum of two 4-bit values.
                let a = constant_vector(&mgr, x & 0x1f, 5);
                let b = constant_vector(&mgr, y & 0x1f, 5);
                let s = add_sliced(&mgr, &a, &b, NodeId::FALSE);
                assert_eq!(value_at(&mgr, &s, &[false, false]), x + y, "{x}+{y}");
            }
        }
    }

    #[test]
    fn conditional_negation_only_affects_matching_rows() {
        let mgr = Manager::new(1);
        // Vector whose value is +3 at every row, width 4.
        let v = constant_vector(&mgr, 3, 4);
        let q0 = mgr.var(0);
        let negated = negate_where(&mgr, &v, q0);
        assert_eq!(value_at(&mgr, &negated, &[false]), 3);
        assert_eq!(value_at(&mgr, &negated, &[true]), -3);
        // Negating where `false` never changes anything.
        let untouched = negate_where(&mgr, &v, NodeId::FALSE);
        assert_eq!(value_at(&mgr, &untouched, &[true]), 3);
        // Negating everywhere is plain negation.
        let all = negate_where(&mgr, &v, NodeId::TRUE);
        assert_eq!(value_at(&mgr, &all, &[false]), -3);
    }

    #[test]
    fn negation_of_minimum_value_needs_the_extended_width() {
        let mgr = Manager::new(1);
        // -8 in 4 bits; its negation (+8) needs 5 bits, so extend first.
        let mut v = constant_vector(&mgr, -8i64 & 0xf, 4);
        let msb = *v.last().unwrap();
        v.push(msb); // sign extension to 5 bits
        let negated = negate_where(&mgr, &v, NodeId::TRUE);
        assert_eq!(value_at(&mgr, &negated, &[false]), 8);
    }
}
