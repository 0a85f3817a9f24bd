//! Property-based tests: BDD operations must agree with a brute-force
//! truth-table oracle on random Boolean expressions over a small variable
//! set, and the complement-edge manager must match a regular-edge reference
//! manager *node for node* — on random formulas and on random
//! Clifford+T-shaped kernel-op workloads — while maintaining the canonical
//! form (no stored low edge is ever complemented, `¬¬f` is the identical
//! edge without any allocation).

use proptest::prelude::*;
use sliq_bdd::{Manager, ModelCounter, NodeId};
use sliq_bignum::UBig;

const NVARS: usize = 5;

/// A random Boolean expression AST.
#[derive(Debug, Clone)]
enum Expr {
    Const(bool),
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Expr::Const),
        (0..NVARS).prop_map(Expr::Var),
    ];
    leaf.prop_recursive(4, 64, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Ite(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

fn eval_expr(e: &Expr, assignment: &[bool]) -> bool {
    match e {
        Expr::Const(b) => *b,
        Expr::Var(v) => assignment[*v],
        Expr::Not(a) => !eval_expr(a, assignment),
        Expr::And(a, b) => eval_expr(a, assignment) && eval_expr(b, assignment),
        Expr::Or(a, b) => eval_expr(a, assignment) || eval_expr(b, assignment),
        Expr::Xor(a, b) => eval_expr(a, assignment) ^ eval_expr(b, assignment),
        Expr::Ite(a, b, c) => {
            if eval_expr(a, assignment) {
                eval_expr(b, assignment)
            } else {
                eval_expr(c, assignment)
            }
        }
    }
}

fn build_bdd(mgr: &Manager, e: &Expr) -> NodeId {
    match e {
        Expr::Const(b) => mgr.constant(*b),
        Expr::Var(v) => mgr.var(*v),
        Expr::Not(a) => {
            let fa = build_bdd(mgr, a);
            mgr.not(fa)
        }
        Expr::And(a, b) => {
            let fa = build_bdd(mgr, a);
            let fb = build_bdd(mgr, b);
            mgr.and(fa, fb)
        }
        Expr::Or(a, b) => {
            let fa = build_bdd(mgr, a);
            let fb = build_bdd(mgr, b);
            mgr.or(fa, fb)
        }
        Expr::Xor(a, b) => {
            let fa = build_bdd(mgr, a);
            let fb = build_bdd(mgr, b);
            mgr.xor(fa, fb)
        }
        Expr::Ite(a, b, c) => {
            // (a ∧ b) ∨ (¬a ∧ c): the kernel has no generic if-then-else.
            let fa = build_bdd(mgr, a);
            let fb = build_bdd(mgr, b);
            let fc = build_bdd(mgr, c);
            let then = mgr.and(fa, fb);
            let nfa = mgr.not(fa);
            let otherwise = mgr.and(nfa, fc);
            mgr.or(then, otherwise)
        }
    }
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << NVARS)).map(|bits| (0..NVARS).map(|v| bits >> v & 1 == 1).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bdd_matches_truth_table(e in expr_strategy()) {
        let mgr = Manager::new(NVARS);
        let f = build_bdd(&mgr, &e);
        for a in assignments() {
            prop_assert_eq!(mgr.eval(f, &a), eval_expr(&e, &a));
        }
    }

    #[test]
    fn sat_count_matches_truth_table(e in expr_strategy()) {
        let mgr = Manager::new(NVARS);
        let f = build_bdd(&mgr, &e);
        let expected = assignments().filter(|a| eval_expr(&e, a)).count() as u64;
        prop_assert_eq!(mgr.sat_count(f, NVARS), UBig::from(expected));
    }

    #[test]
    fn semantically_equal_expressions_share_one_node(e in expr_strategy()) {
        // Canonicity: building ¬¬e and e must give the identical NodeId.
        let mgr = Manager::new(NVARS);
        let f = build_bdd(&mgr, &e);
        let g = build_bdd(&mgr, &Expr::Not(Box::new(Expr::Not(Box::new(e)))));
        prop_assert_eq!(f, g);
    }

    #[test]
    fn cofactor_matches_restricted_truth_table(e in expr_strategy(), var in 0..NVARS, value in any::<bool>()) {
        let mgr = Manager::new(NVARS);
        let f = build_bdd(&mgr, &e);
        let cf = mgr.cofactor(f, var, value);
        for mut a in assignments() {
            a[var] = value;
            prop_assert_eq!(mgr.eval(cf, &a), eval_expr(&e, &a));
        }
        // The cofactor never depends on the restricted variable, so
        // restricting it again, either way, returns the identical edge.
        prop_assert_eq!(mgr.cofactor(cf, var, !value), cf);
    }

    #[test]
    fn shannon_expansion_reconstructs_function(e in expr_strategy(), var in 0..NVARS) {
        let mgr = Manager::new(NVARS);
        let f = build_bdd(&mgr, &e);
        let f0 = mgr.cofactor(f, var, false);
        let f1 = mgr.cofactor(f, var, true);
        let x = mgr.var(var);
        let then = mgr.and(x, f1);
        let nx = mgr.not(x);
        let otherwise = mgr.and(nx, f0);
        prop_assert_eq!(mgr.or(then, otherwise), f);
        // The literal multiplexer is the same expansion in one recursion.
        prop_assert_eq!(mgr.mux(x, f1, f0), f);
    }

    #[test]
    fn gc_preserves_roots(e1 in expr_strategy(), e2 in expr_strategy()) {
        let mut mgr = Manager::new(NVARS);
        let f1 = build_bdd(&mgr, &e1);
        let f2 = build_bdd(&mgr, &e2);
        // Drop f2 (treat as garbage), keep f1.
        mgr.collect_garbage(&[f1]);
        for a in assignments() {
            prop_assert_eq!(mgr.eval(f1, &a), eval_expr(&e1, &a));
        }
        // Rebuilding e2 after GC still yields a correct function.
        let f2b = build_bdd(&mgr, &e2);
        for a in assignments() {
            prop_assert_eq!(mgr.eval(f2b, &a), eval_expr(&e2, &a));
        }
        let _ = f2;
    }

    #[test]
    fn specialized_applies_match_the_regular_edge_reference(e1 in expr_strategy(), e2 in expr_strategy()) {
        // The dedicated two-operand recursions, applied to two independently
        // built functions, must unfold node for node to the reference
        // manager's ITE formulations of the same operations.
        let mgr = Manager::new(NVARS);
        let f = build_bdd(&mgr, &e1);
        let g = build_bdd(&mgr, &e2);
        let mut r = RefManager::new();
        let rf = build_ref(&mut r, &e1);
        let rg = build_ref(&mut r, &e2);
        let pairs = [
            (mgr.and(f, g), r.and(rf, rg)),
            (mgr.or(f, g), r.or(rf, rg)),
            (mgr.xor(f, g), r.xor(rf, rg)),
            (mgr.not(f), r.not(rf)),
        ];
        for (direct, reference) in pairs {
            let mut memo = HashMap::new();
            prop_assert!(structurally_equal(&mgr, direct, &r, reference, &mut memo));
        }
    }

    #[test]
    fn three_operand_applies_equal_their_chained_encodings(
        e1 in expr_strategy(),
        e2 in expr_strategy(),
        e3 in expr_strategy(),
    ) {
        let mgr = Manager::new(NVARS);
        let f = build_bdd(&mgr, &e1);
        let g = build_bdd(&mgr, &e2);
        let h = build_bdd(&mgr, &e3);

        // xor3 = f ⊕ g ⊕ h via chained two-operand xors.
        let xor3_direct = mgr.xor3(f, g, h);
        let fg = mgr.xor(f, g);
        let xor3_chained = mgr.xor(fg, h);
        prop_assert_eq!(xor3_direct, xor3_chained);

        // maj = f·g ∨ (f ∨ g)·h, the full-adder carry.
        let maj_direct = mgr.maj(f, g, h);
        let fg_and = mgr.and(f, g);
        let fg_or = mgr.or(f, g);
        let propagate = mgr.and(fg_or, h);
        let maj_chained = mgr.or(fg_and, propagate);
        prop_assert_eq!(maj_direct, maj_chained);
    }

    #[test]
    fn controlled_flip_and_mux_match_their_definitions(
        e1 in expr_strategy(),
        e2 in expr_strategy(),
        e3 in expr_strategy(),
        picks in proptest::collection::vec(0..NVARS, 0..4),
        target in 0..NVARS,
        swaps in proptest::collection::vec(0..NVARS - 1, 0..6),
    ) {
        // At a random variable order, with 0–3 distinct positive controls
        // anywhere above or below a random target:
        //   flip(f)(x) = f(x with x_t negated) where every control is 1,
        //   f(x) elsewhere;  mux(cube, g, h)(x) = cube(x) ? g(x) : h(x).
        let mut mgr = Manager::new(NVARS);
        for &level in &swaps {
            mgr.swap_adjacent_levels(level);
        }
        let mut controls: Vec<usize> = picks.into_iter().filter(|&c| c != target).collect();
        controls.sort_unstable();
        controls.dedup();
        let literals: Vec<(usize, bool)> = controls.iter().map(|&c| (c, true)).collect();
        let cube = mgr.cube(&literals);
        let (f, g, h) = (build_bdd(&mgr, &e1), build_bdd(&mgr, &e2), build_bdd(&mgr, &e3));
        let flipped = mgr.controlled_flip(f, cube, target);
        let muxed = mgr.mux(cube, g, h);
        for a in assignments() {
            let on = controls.iter().all(|&c| a[c]);
            let mut moved = a.clone();
            if on {
                moved[target] = !moved[target];
            }
            prop_assert_eq!(mgr.eval(flipped, &a), eval_expr(&e1, &moved));
            let chosen = if on { &e2 } else { &e3 };
            prop_assert_eq!(mgr.eval(muxed, &a), eval_expr(chosen, &a));
        }
        // The flip is an involution and commutes with complementation.
        prop_assert_eq!(mgr.controlled_flip(flipped, cube, target), f);
        prop_assert_eq!(mgr.controlled_flip(f.complement(), cube, target), flipped.complement());
        if let Err(violation) = mgr.check_integrity() {
            prop_assert!(false, "integrity after flip and mux: {}", violation);
        }
    }

    // ------------------------------------------------------------------ //
    // Reordering: swaps and sifting are pure representation changes
    // ------------------------------------------------------------------ //

    #[test]
    fn random_swap_sequences_preserve_semantics(
        e1 in expr_strategy(),
        e2 in expr_strategy(),
        swaps in proptest::collection::vec(0..NVARS - 1, 0..24),
    ) {
        let mut mgr = Manager::new(NVARS);
        let f = build_bdd(&mgr, &e1);
        let g = build_bdd(&mgr, &e2);
        let slot_f = mgr.register_root(f);
        let slot_g = mgr.register_root(g);
        let count_f = mgr.sat_count(f, NVARS);
        let count_g = mgr.sat_count(g, NVARS);
        for &level in &swaps {
            mgr.swap_adjacent_levels(level);
            // Canonicity invariants hold after every swap (stored low
            // edges regular, no redundant or duplicate nodes, consistent
            // subtables and permutation arrays).
            if let Err(violation) = mgr.check_integrity() {
                prop_assert!(false, "integrity after swap at {}: {}", level, violation);
            }
            if let Err(msg) = assert_low_edges_regular(&mgr, f) {
                prop_assert!(false, "{}", msg);
            }
        }
        // The registered handles are untouched and still denote the same
        // functions (eval is in variable space, so the truth tables are
        // directly comparable).
        prop_assert_eq!(mgr.root(slot_f), f);
        prop_assert_eq!(mgr.root(slot_g), g);
        for a in assignments() {
            prop_assert_eq!(mgr.eval(f, &a), eval_expr(&e1, &a));
            prop_assert_eq!(mgr.eval(g, &a), eval_expr(&e2, &a));
        }
        prop_assert_eq!(mgr.sat_count(f, NVARS), count_f);
        prop_assert_eq!(mgr.sat_count(g, NVARS), count_g);
    }

    #[test]
    fn swap_followed_by_its_inverse_restores_the_exact_node_count(
        e1 in expr_strategy(),
        e2 in expr_strategy(),
        level in 0..NVARS - 1,
    ) {
        let mut mgr = Manager::new(NVARS);
        let f = build_bdd(&mgr, &e1);
        let g = build_bdd(&mgr, &e2);
        let _sf = mgr.register_root(f);
        let _sg = mgr.register_root(g);
        // Start from a garbage-free diagram so sizes are canonical.
        mgr.collect_garbage_registered();
        let count = mgr.allocated_nodes();
        let order = mgr.current_order();
        mgr.swap_adjacent_levels(level);
        mgr.swap_adjacent_levels(level);
        prop_assert_eq!(mgr.allocated_nodes(), count);
        prop_assert_eq!(mgr.current_order(), order);
    }

    #[test]
    fn full_sifting_preserves_semantics_and_never_grows_the_bdd(
        e1 in expr_strategy(),
        e2 in expr_strategy(),
        converge in any::<bool>(),
    ) {
        let mut mgr = Manager::new(NVARS);
        let f = build_bdd(&mgr, &e1);
        let g = build_bdd(&mgr, &e2);
        let _sf = mgr.register_root(f);
        let _sg = mgr.register_root(g);
        let count_f = mgr.sat_count(f, NVARS);
        mgr.set_converging_sifting(converge);
        let stats = mgr.reorder();
        prop_assert!(
            stats.size_after <= stats.size_before,
            "sifting parks every variable at its best seen position"
        );
        if let Err(violation) = mgr.check_integrity() {
            prop_assert!(false, "integrity after sifting: {}", violation);
        }
        for a in assignments() {
            prop_assert_eq!(mgr.eval(f, &a), eval_expr(&e1, &a));
            prop_assert_eq!(mgr.eval(g, &a), eval_expr(&e2, &a));
        }
        prop_assert_eq!(mgr.sat_count(f, NVARS), count_f);
        // Operations keep working against the permuted order (the op
        // caches were epoch-invalidated by the reorder).
        let h = mgr.and(f, g);
        for a in assignments() {
            prop_assert_eq!(mgr.eval(h, &a), eval_expr(&e1, &a) && eval_expr(&e2, &a));
        }
    }
}

// ---------------------------------------------------------------------- //
// Model counter: one memo shared across roots, u128/UBig width switch
// ---------------------------------------------------------------------- //

/// Moves `var` up to level `to` by adjacent swaps (the relative order of
/// every other variable is kept).
fn bubble_up(mgr: &mut Manager, var: usize, to: usize) {
    while mgr.level_of_var(var) > to {
        let level = mgr.level_of_var(var);
        mgr.swap_adjacent_levels(level - 1);
    }
}

/// Truth-table model count of `e` over its first `NVARS` variables.
fn truth_table_count(e: &Expr) -> UBig {
    UBig::from(assignments().filter(|a| eval_expr(e, a)).count() as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_counter_across_many_roots_matches_fresh_counts_and_the_truth_table(
        exprs in proptest::collection::vec(expr_strategy(), 1..8),
    ) {
        let mut mgr = Manager::new(NVARS);
        let roots: Vec<NodeId> = exprs.iter().map(|e| build_bdd(&mgr, e)).collect();
        for &f in &roots {
            mgr.register_root(f);
        }
        // Count under a sifted order, forced away from the identity so the
        // level-gap arithmetic is exercised off the index order.
        mgr.reorder();
        if mgr.current_order() == (0..NVARS).collect::<Vec<_>>() {
            mgr.swap_adjacent_levels(0);
        }
        prop_assert!(mgr.current_order() != (0..NVARS).collect::<Vec<_>>());
        let mut counter = ModelCounter::new(&mgr, NVARS);
        for (e, &f) in exprs.iter().zip(&roots) {
            let expected = truth_table_count(e);
            let complement = UBig::pow2(NVARS).sub(&expected);
            // Both polarities, twice: the second pass is answered from the
            // memo filled by every earlier root.
            for _ in 0..2 {
                prop_assert_eq!(counter.count(f), expected.clone());
                prop_assert_eq!(counter.count(f.complement()), complement.clone());
            }
            prop_assert_eq!(mgr.sat_count(f, NVARS), expected.clone());
            prop_assert_eq!(mgr.sat_count(f.complement(), NVARS), complement);
        }
        // Cofactors built after the first counts, as the sampling descent
        // builds them: the sifted order makes them new nodes, and the same
        // counter, memo and all, must count them like a fresh one.
        for &f in &roots {
            for var in 0..NVARS {
                for value in [false, true] {
                    let g = mgr.cofactor(f, var, value);
                    prop_assert_eq!(counter.count(g), mgr.sat_count(g, NVARS));
                    prop_assert_eq!(
                        counter.count(g.complement()),
                        mgr.sat_count(g.complement(), NVARS)
                    );
                }
            }
        }
    }

    #[test]
    fn counting_a_variable_subset_at_non_contiguous_levels(
        e in expr_strategy(),
        swaps in proptest::collection::vec(0..NVARS + 2, 4..24),
    ) {
        // Three uncounted variables (NVARS..NVARS + 3) are shuffled in
        // among the counted ones; then a counted variable is lifted to the
        // top with an uncounted one right below it, so the counted levels
        // have a gap whatever the shuffle did.
        let mut mgr = Manager::new(NVARS + 3);
        let f = build_bdd(&mgr, &e);
        mgr.register_root(f);
        for &level in &swaps {
            mgr.swap_adjacent_levels(level);
        }
        let top_counted = (0..NVARS + 3)
            .map(|l| mgr.var_at_level(l))
            .find(|&v| v < NVARS)
            .expect("some variable is counted");
        bubble_up(&mut mgr, top_counted, 0);
        if mgr.var_at_level(1) < NVARS {
            bubble_up(&mut mgr, NVARS + 1, 1);
        }
        prop_assert!(mgr.var_at_level(0) < NVARS && mgr.var_at_level(1) >= NVARS);
        let expected = truth_table_count(&e);
        let mut counter = ModelCounter::new(&mgr, NVARS);
        prop_assert_eq!(counter.count(f), expected.clone());
        prop_assert_eq!(counter.count(f.complement()), UBig::pow2(NVARS).sub(&expected));
        // The same function counted over all variables scales by 2^3.
        prop_assert_eq!(mgr.sat_count(f, NVARS + 3), expected.shl(3));
    }
}

#[test]
fn counter_width_boundaries_match_power_of_two_arithmetic() {
    // 127 counted variables is the widest u128 count, 128 the first
    // UBig one; 4000 is far beyond both.
    for nvars in [126usize, 127, 128, 129, 4000] {
        let mut mgr = Manager::new(nvars + 2);
        let mid = mgr.var(nvars / 2);
        let last = mgr.var(nvars - 1);
        let first = mgr.var(0);
        let both = mgr.and(first, last);
        mgr.register_root(both);
        mgr.register_root(mid);
        // An uncounted variable at the top level offsets every counted one.
        bubble_up(&mut mgr, nvars + 1, 0);
        let all = UBig::pow2(nvars);
        let mut counter = ModelCounter::new(&mgr, nvars);
        assert_eq!(counter.count(NodeId::TRUE), all, "TRUE over {nvars}");
        assert_eq!(counter.count(NodeId::FALSE), UBig::zero());
        assert_eq!(
            counter.count(mid),
            UBig::pow2(nvars - 1),
            "literal over {nvars}"
        );
        assert_eq!(
            counter.count(mid.complement()),
            all.sub(&UBig::pow2(nvars - 1)),
            "complemented literal over {nvars}"
        );
        assert_eq!(counter.count(both), UBig::pow2(nvars - 2));
        assert_eq!(
            counter.count(both.complement()),
            all.sub(&UBig::pow2(nvars - 2))
        );
        assert_eq!(mgr.sat_count(mid, nvars), UBig::pow2(nvars - 1));
        assert_eq!(mgr.sat_count(NodeId::TRUE, nvars), all);
    }
}

// ---------------------------------------------------------------------- //
// Complement-edge oracle: a minimal *regular-edge* ROBDD manager (the
// pre-complement-edge kernel distilled to its semantics) that the
// complement-edge manager is compared against node-for-node.
// ---------------------------------------------------------------------- //

mod reference {
    use std::collections::HashMap;

    const TERM_LEVEL: u32 = u32::MAX;
    /// Reference false terminal.
    pub const R_FALSE: usize = 0;
    /// Reference true terminal.
    pub const R_TRUE: usize = 1;

    /// A hash-consed ROBDD manager *without* complement edges: two terminal
    /// nodes, ITE-based operations, no operation sharing between a function
    /// and its negation.  Deliberately simple — correctness oracle only.
    pub struct RefManager {
        /// `(level, low, high)`; entries 0 and 1 are the terminals.
        pub nodes: Vec<(u32, usize, usize)>,
        unique: HashMap<(u32, usize, usize), usize>,
        ite_memo: HashMap<(usize, usize, usize), usize>,
    }

    impl RefManager {
        pub fn new() -> Self {
            Self {
                nodes: vec![(TERM_LEVEL, 0, 0), (TERM_LEVEL, 1, 1)],
                unique: HashMap::new(),
                ite_memo: HashMap::new(),
            }
        }

        fn mk(&mut self, level: u32, low: usize, high: usize) -> usize {
            if low == high {
                return low;
            }
            *self.unique.entry((level, low, high)).or_insert_with(|| {
                self.nodes.push((level, low, high));
                self.nodes.len() - 1
            })
        }

        fn level(&self, f: usize) -> u32 {
            self.nodes[f].0
        }

        fn split(&self, f: usize, level: u32) -> (usize, usize) {
            let (l, low, high) = self.nodes[f];
            if l == level {
                (low, high)
            } else {
                (f, f)
            }
        }

        pub fn var(&mut self, v: usize) -> usize {
            self.mk(v as u32, R_FALSE, R_TRUE)
        }

        pub fn ite(&mut self, f: usize, g: usize, h: usize) -> usize {
            if f == R_TRUE {
                return g;
            }
            if f == R_FALSE {
                return h;
            }
            if g == h {
                return g;
            }
            if let Some(&r) = self.ite_memo.get(&(f, g, h)) {
                return r;
            }
            let top = self.level(f).min(self.level(g)).min(self.level(h));
            let (f0, f1) = self.split(f, top);
            let (g0, g1) = self.split(g, top);
            let (h0, h1) = self.split(h, top);
            let low = self.ite(f0, g0, h0);
            let high = self.ite(f1, g1, h1);
            let r = self.mk(top, low, high);
            self.ite_memo.insert((f, g, h), r);
            r
        }

        pub fn not(&mut self, f: usize) -> usize {
            self.ite(f, R_FALSE, R_TRUE)
        }

        pub fn and(&mut self, f: usize, g: usize) -> usize {
            self.ite(f, g, R_FALSE)
        }

        pub fn or(&mut self, f: usize, g: usize) -> usize {
            self.ite(f, R_TRUE, g)
        }

        pub fn xor(&mut self, f: usize, g: usize) -> usize {
            let ng = self.not(g);
            self.ite(f, ng, g)
        }

        /// `f` with `t` negated where `cube` holds, by its definition:
        /// `ite(cube, ite(x_t, f|₀, f|₁), f)`.
        pub fn controlled_flip(&mut self, f: usize, cube: usize, t: usize) -> usize {
            let f0 = self.restrict(f, t, false);
            let f1 = self.restrict(f, t, true);
            let x = self.var(t);
            let swapped = self.ite(x, f0, f1);
            self.ite(cube, swapped, f)
        }

        pub fn restrict(&mut self, f: usize, var: usize, value: bool) -> usize {
            let (level, low, high) = self.nodes[f];
            if level > var as u32 {
                return f;
            }
            if level == var as u32 {
                return if value { high } else { low };
            }
            let l = self.restrict(low, var, value);
            let h = self.restrict(high, var, value);
            self.mk(level, l, h)
        }

        pub fn node_count(&self, f: usize) -> usize {
            let mut seen = std::collections::HashSet::new();
            let mut stack = vec![f];
            while let Some(g) = stack.pop() {
                if g <= 1 || !seen.insert(g) {
                    continue;
                }
                let (_, low, high) = self.nodes[g];
                stack.push(low);
                stack.push(high);
            }
            seen.len()
        }
    }
}

use reference::{RefManager, R_FALSE, R_TRUE};
use std::collections::{HashMap, HashSet};

fn build_ref(r: &mut RefManager, e: &Expr) -> usize {
    match e {
        Expr::Const(b) => {
            if *b {
                R_TRUE
            } else {
                R_FALSE
            }
        }
        Expr::Var(v) => r.var(*v),
        Expr::Not(a) => {
            let fa = build_ref(r, a);
            r.not(fa)
        }
        Expr::And(a, b) => {
            let fa = build_ref(r, a);
            let fb = build_ref(r, b);
            r.and(fa, fb)
        }
        Expr::Or(a, b) => {
            let fa = build_ref(r, a);
            let fb = build_ref(r, b);
            r.or(fa, fb)
        }
        Expr::Xor(a, b) => {
            let fa = build_ref(r, a);
            let fb = build_ref(r, b);
            r.xor(fa, fb)
        }
        Expr::Ite(a, b, c) => {
            let fa = build_ref(r, a);
            let fb = build_ref(r, b);
            let fc = build_ref(r, c);
            r.ite(fa, fb, fc)
        }
    }
}

/// Node-for-node comparison: unfolding the complement bits of `f` must give
/// exactly the regular-edge BDD rooted at `rf` — same levels, same branch
/// structure, same terminals on every path.
fn structurally_equal(
    mgr: &Manager,
    f: NodeId,
    r: &RefManager,
    rf: usize,
    memo: &mut HashMap<(NodeId, usize), bool>,
) -> bool {
    if f.is_true() {
        return rf == R_TRUE;
    }
    if f.is_false() {
        return rf == R_FALSE;
    }
    if rf <= 1 {
        return false;
    }
    if let Some(&cached) = memo.get(&(f, rf)) {
        return cached;
    }
    let (level, low, high) = mgr.node(f).expect("non-terminal");
    let (rlevel, rlow, rhigh) = r.nodes[rf];
    let equal = rlevel != u32::MAX
        && level == rlevel as usize
        && structurally_equal(mgr, low, r, rlow, memo)
        && structurally_equal(mgr, high, r, rhigh, memo);
    memo.insert((f, rf), equal);
    equal
}

/// Walks every node reachable from `f` asserting the canonical form: no
/// stored low edge carries the complement bit.
fn assert_low_edges_regular(mgr: &Manager, f: NodeId) -> Result<(), String> {
    let mut seen: HashSet<NodeId> = HashSet::new();
    let mut stack = vec![f.regular()];
    while let Some(g) = stack.pop() {
        if g.is_terminal() || !seen.insert(g) {
            continue;
        }
        // `g` is regular, so node() returns the stored edges verbatim.
        let (_, low, high) = mgr.node(g).expect("non-terminal");
        if low.is_complemented() {
            return Err(format!("node {:?} stores a complemented low edge", g));
        }
        stack.push(low);
        stack.push(high.regular());
    }
    Ok(())
}

/// One step of a random Clifford+T-shaped workload over a pool of slice
/// functions, expressed in the kernel ops the gate formulas of
/// `sliq-core::gates` actually use (the controlled flip for X, CX and CCX,
/// XOR for the conditional phase flip, cofactor + XOR3/MAJ full-adder
/// steps for H).
#[derive(Debug, Clone)]
enum CtOp {
    X { t: usize },
    Cx { c: usize, t: usize },
    Ccx { c1: usize, c2: usize, t: usize },
    Phase { t: usize, slice: usize },
    H { t: usize, slice: usize },
}

fn ct_op_strategy() -> impl Strategy<Value = CtOp> {
    let distinct = (0..NVARS, 0..NVARS).prop_filter("distinct", |(a, b)| a != b);
    let distinct3 = (0..NVARS, 0..NVARS, 0..NVARS)
        .prop_filter("distinct", |(a, b, c)| a != b && b != c && a != c);
    prop_oneof![
        (0..NVARS).prop_map(|t| CtOp::X { t }),
        distinct.prop_map(|(c, t)| CtOp::Cx { c, t }),
        distinct3.prop_map(|(c1, c2, t)| CtOp::Ccx { c1, c2, t }),
        (0..NVARS, 0..4usize).prop_map(|(t, slice)| CtOp::Phase { t, slice }),
        (0..NVARS, 0..4usize).prop_map(|(t, slice)| CtOp::H { t, slice }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn complement_manager_matches_regular_edge_reference(e in expr_strategy()) {
        let mgr = Manager::new(NVARS);
        let f = build_bdd(&mgr, &e);
        let mut r = RefManager::new();
        let rf = build_ref(&mut r, &e);
        let mut memo = HashMap::new();
        prop_assert!(
            structurally_equal(&mgr, f, &r, rf, &mut memo),
            "complement-edge BDD does not unfold to the regular-edge reference"
        );
        // Sharing a function with its negation can only shrink the graph.
        prop_assert!(mgr.node_count(f) <= r.node_count(rf));
        // And the negation is the *same* comparison against the reference
        // negation, through the identical shared nodes.
        let nf = mgr.not(f);
        let nrf = r.not(rf);
        let mut memo = HashMap::new();
        prop_assert!(structurally_equal(&mgr, nf, &r, nrf, &mut memo));
    }

    #[test]
    fn canonicity_invariants_hold_on_random_formulas(e in expr_strategy()) {
        let mgr = Manager::new(NVARS);
        let f = build_bdd(&mgr, &e);
        if let Err(msg) = assert_low_edges_regular(&mgr, f) {
            prop_assert!(false, "{}", msg);
        }
        // not is an O(1) involution: no allocation, no cache traffic.
        let created = mgr.stats().created_nodes;
        let cache_total = mgr.stats().total_cache();
        let nf = mgr.not(f);
        let back = mgr.not(nf);
        prop_assert_eq!(back, f);
        prop_assert_eq!(mgr.stats().created_nodes, created);
        let cache_after = mgr.stats().total_cache();
        prop_assert_eq!(cache_after.hits, cache_total.hits);
        prop_assert_eq!(cache_after.misses, cache_total.misses);
    }

    #[test]
    fn clifford_t_shaped_workload_matches_reference(
        ops in proptest::collection::vec(ct_op_strategy(), 1..24)
    ) {
        // A pool of four "slice" functions seeded with the literals the
        // bit-sliced state starts from, evolved by the same kernel-op
        // recipes the gate layer uses, mirrored onto the reference manager
        // with ITE-only regular-edge operations.
        let mgr = Manager::new(NVARS);
        let mut r = RefManager::new();
        let mut pool: Vec<NodeId> = Vec::new();
        let mut rpool: Vec<usize> = Vec::new();
        for v in 0..4 {
            pool.push(mgr.var(v % NVARS));
            rpool.push(r.var(v % NVARS));
        }
        for op in &ops {
            match *op {
                CtOp::X { t } => {
                    for (f, rf) in pool.iter_mut().zip(rpool.iter_mut()) {
                        *f = mgr.controlled_flip(*f, NodeId::TRUE, t);
                        *rf = r.controlled_flip(*rf, R_TRUE, t);
                    }
                }
                CtOp::Cx { c, t } => {
                    let cube = mgr.var(c);
                    let rcube = r.var(c);
                    for (f, rf) in pool.iter_mut().zip(rpool.iter_mut()) {
                        *f = mgr.controlled_flip(*f, cube, t);
                        *rf = r.controlled_flip(*rf, rcube, t);
                    }
                }
                CtOp::Ccx { c1, c2, t } => {
                    let cube = mgr.cube(&[(c1, true), (c2, true)]);
                    let (rc1, rc2) = (r.var(c1), r.var(c2));
                    let rcube = r.and(rc1, rc2);
                    for (f, rf) in pool.iter_mut().zip(rpool.iter_mut()) {
                        *f = mgr.controlled_flip(*f, cube, t);
                        *rf = r.controlled_flip(*rf, rcube, t);
                    }
                }
                CtOp::Phase { t, slice } => {
                    let i = slice % pool.len();
                    let qt = mgr.var(t);
                    pool[i] = mgr.xor(pool[i], qt);
                    let rqt = r.var(t);
                    rpool[i] = r.xor(rpool[i], rqt);
                }
                CtOp::H { t, slice } => {
                    // One full-adder step of the Hadamard formula: sum and
                    // carry of (F|₀, F|₁ ⊕ qₜ, qₜ).
                    let i = slice % pool.len();
                    let qt = mgr.var(t);
                    let f0 = mgr.cofactor(pool[i], t, false);
                    let f1 = mgr.cofactor(pool[i], t, true);
                    let second = mgr.xor(f1, qt);
                    let sum = mgr.xor3(f0, second, qt);
                    let carry = mgr.maj(f0, second, qt);
                    pool[i] = sum;
                    pool[(i + 1) % 4] = carry;

                    let rqt = r.var(t);
                    let rf0 = r.restrict(rpool[i], t, false);
                    let rf1 = r.restrict(rpool[i], t, true);
                    let rsecond = r.xor(rf1, rqt);
                    let s1 = r.xor(rf0, rsecond);
                    let rsum = r.xor(s1, rqt);
                    let ab = r.and(rf0, rsecond);
                    let ab_or = r.or(rf0, rsecond);
                    let prop_c = r.and(ab_or, rqt);
                    let rcarry = r.or(ab, prop_c);
                    rpool[i] = rsum;
                    rpool[(i + 1) % 4] = rcarry;
                }
            }
        }
        // Node-for-node agreement of every live slice, plus canonicity.
        for (f, rf) in pool.iter().zip(rpool.iter()) {
            let mut memo = HashMap::new();
            prop_assert!(
                structurally_equal(&mgr, *f, &r, *rf, &mut memo),
                "slice diverged from the regular-edge reference"
            );
            if let Err(msg) = assert_low_edges_regular(&mgr, *f) {
                prop_assert!(false, "{}", msg);
            }
        }
    }
}

// ---------------------------------------------------------------------- //
// Apply interleaved with GC + reordering: the kernel's phase discipline.
// Apply recursions run on `&Manager`; exclusive phases (GC, swaps,
// auto-reorder) run on `&mut Manager`, which the borrow checker guarantees
// cannot overlap an in-flight apply — this test exercises the full cycle,
// including node ids recycled by the exclusive phase, and then holds the
// result to the regular-edge oracle node-for-node.
// ---------------------------------------------------------------------- //

/// `e` with every variable substituted through `map` — used to express the
/// oracle in *level* space after a reordering, so the node-for-node
/// structural comparison stays valid under any variable order.
fn remap_expr(e: &Expr, map: &[usize]) -> Expr {
    match e {
        Expr::Const(b) => Expr::Const(*b),
        Expr::Var(v) => Expr::Var(map[*v]),
        Expr::Not(a) => Expr::Not(Box::new(remap_expr(a, map))),
        Expr::And(a, b) => Expr::And(Box::new(remap_expr(a, map)), Box::new(remap_expr(b, map))),
        Expr::Or(a, b) => Expr::Or(Box::new(remap_expr(a, map)), Box::new(remap_expr(b, map))),
        Expr::Xor(a, b) => Expr::Xor(Box::new(remap_expr(a, map)), Box::new(remap_expr(b, map))),
        Expr::Ite(a, b, c) => Expr::Ite(
            Box::new(remap_expr(a, map)),
            Box::new(remap_expr(b, map)),
            Box::new(remap_expr(c, map)),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn apply_interleaved_with_gc_and_reorder_matches_oracle(
        base in expr_strategy(),
        others in proptest::collection::vec(expr_strategy(), 4..5),
        swaps in proptest::collection::vec(0..NVARS - 1, 0..6),
    ) {
        // Apply phase 1: every expression shares the `base` sub-expression,
        // so the roots hash-cons onto common nodes.
        let mut mgr = Manager::new(NVARS);
        let roots: Vec<NodeId> = others
            .iter()
            .map(|e| {
                let fb = build_bdd(&mgr, &base);
                let fe = build_bdd(&mgr, e);
                mgr.xor(fb, fe)
            })
            .collect();
        // Exclusive phase: GC, explicit swaps and an auto-reorder pass —
        // they need `&mut Manager`, so no apply can be in flight.
        let slots: Vec<_> = roots.iter().map(|&f| mgr.register_root(f)).collect();
        mgr.collect_garbage_registered();
        for &level in &swaps {
            mgr.swap_adjacent_levels(level);
        }
        mgr.set_auto_reorder(true);
        mgr.set_reorder_threshold(1);
        mgr.maybe_reorder();
        if let Err(violation) = mgr.check_integrity() {
            prop_assert!(false, "integrity after exclusive phase: {}", violation);
        }
        for (slot, &f) in slots.iter().zip(roots.iter()) {
            prop_assert_eq!(mgr.root(*slot), f, "registered roots survive the exclusive phase");
        }
        // Apply phase 2: conjoin every root with a literal, now against the
        // permuted order and the recycled node ids the exclusive phase
        // produced.
        let conjoined: Vec<NodeId> = roots
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let lit = mgr.var(i % NVARS);
                mgr.and(f, lit)
            })
            .collect();
        if let Err(violation) = mgr.check_integrity() {
            prop_assert!(false, "integrity after apply phase 2: {}", violation);
        }
        // Oracle comparison, node-for-node in *level* space (the order may
        // have changed, so the reference is built over remapped variables).
        let level_of: Vec<usize> = (0..NVARS).map(|v| mgr.level_of_var(v)).collect();
        for (i, (&f, &g)) in roots.iter().zip(conjoined.iter()).enumerate() {
            let expr = Expr::Xor(Box::new(base.clone()), Box::new(others[i].clone()));
            let full = Expr::And(Box::new(expr.clone()), Box::new(Expr::Var(i % NVARS)));
            for a in assignments() {
                prop_assert_eq!(mgr.eval(f, &a), eval_expr(&expr, &a));
                prop_assert_eq!(mgr.eval(g, &a), eval_expr(&full, &a));
            }
            let mut r = RefManager::new();
            let rf = build_ref(&mut r, &remap_expr(&expr, &level_of));
            let rg = build_ref(&mut r, &remap_expr(&full, &level_of));
            let mut memo = HashMap::new();
            prop_assert!(
                structurally_equal(&mgr, f, &r, rf, &mut memo),
                "root {} diverged from the oracle node-for-node", i
            );
            prop_assert!(
                structurally_equal(&mgr, g, &r, rg, &mut memo),
                "conjunction {} diverged from the oracle node-for-node", i
            );
            if let Err(msg) = assert_low_edges_regular(&mgr, g) {
                prop_assert!(false, "{}", msg);
            }
        }
    }
}
