//! Dynamic variable reordering: in-place adjacent-level swap and
//! Rudell-style sifting over the per-variable unique subtables.
//!
//! # The swap primitive
//!
//! [`Manager::swap_adjacent_levels`]`(l)` exchanges the variables at levels
//! `l` and `l+1` (call them `x` above `y`).  Because nodes store their
//! *variable* and the order lives in the manager's permutation arrays, only
//! the `x`-nodes that actually depend on `y` need touching:
//!
//! * an `x`-node with no `y`-child keeps its label and children; it simply
//!   finds itself one level lower when the permutation arrays are swapped,
//! * an interacting `x`-node `f = x ? (y ? f11 : f10) : (y ? f01 : f00)` is
//!   rewritten **in place** to `y ? (x ? f11 : f01) : (x ? f10 : f00)`: the
//!   two inner `x`-nodes are hash-consed at the new (lower) `x` position and
//!   the original node is relabelled to `y` with the new children — same id,
//!   same function — so every edge pointing at it from above (or from an
//!   external handle) stays valid without rewriting any parent,
//! * `y`-nodes never move; those that lose their last reference in the
//!   rewrite are freed immediately, which keeps the per-level sizes exact.
//!
//! ## Correctness with complement edges
//!
//! The canonical form (stored low edges regular, PR 2) survives the swap
//! without any explicit re-normalisation:
//!
//! * `f00`/`f01` come from the *low* child `L` of the `x`-node.  `L` is
//!   stored regular, and if `L` is a `y`-node its own stored low `f00` is
//!   regular too — so the new low grandchild `mk(x, f00, f10)` always
//!   receives a regular low edge and returns a regular edge, which becomes
//!   the relabelled node's low child.  The stored-low-regular invariant is
//!   therefore preserved structurally, not by case analysis.
//! * `f10`/`f11` come from the high child, whose complement bit is pushed
//!   into them first (`cofactors_of`), exactly as the apply recursions do;
//!   `mk`'s usual canonical flip handles a complemented `f01`/`f11`.
//! * A relabelled node can never collide with an existing `y`-node: before
//!   the swap no `y`-node can have an `x`-child (x was above y), and at
//!   least one of the two new children is an `x`-labelled node (if both
//!   reduced away, `L` and `H` would denote the same function, contradicting
//!   canonicity of the *pre*-swap diagram).
//!
//! Reference counts are not maintained by the kernel (garbage collection is
//! mark-and-sweep), so a reordering operation first derives them in one
//! O(allocated) pass: one count per stored parent edge plus one per
//! registered root (the root registry is what makes external handles
//! first-class here).  The counts are then maintained incrementally across
//! every swap of the run, so node death is detected exactly.
//!
//! # Sifting
//!
//! [`Manager::reorder`] implements Rudell's sifting: variables are visited
//! in decreasing subtable-size order; each is moved to every level of the
//! order by adjacent swaps (closer end first), the best total size seen is
//! remembered, and the variable is parked there.  A move aborts early when
//! the size grows past `max(size·6/5, size+20)` — the classic 1.2× growth
//! limit.  A run is one pass over the variables; a caller that wants
//! another calls [`Manager::reorder`] again.
//!
//! ## Cost model
//!
//! One swap costs O(interacting nodes at the upper level) hash-cons
//! operations — no traversal of the rest of the diagram, no parent
//! rewriting.  The interaction count is **complement-aware**: the
//! predicate resolves the high edge through [`crate::NodeId::regular`]
//! before reading the child's variable, so a complemented edge into a
//! lower-level node is one interaction, not two, and stored low edges are
//! never complemented at all (canonical form) — an edge-level estimate
//! that treated complement bits as distinct children would overcount the
//! relink batch.  A full sift of `n`
//! variables performs O(n²) swaps on a diagram of size `m`, i.e. O(n·m)
//! node touches in the worst case per direction, bounded in practice by
//! the growth limit's early aborts.  The op caches are invalidated once
//! per reordering run (epoch bump), not per swap: cached results keyed on
//! surviving ids stay semantically correct because ids keep their
//! functions, but freed ids may be recycled, so the whole epoch is retired
//! at the end of the run.
//!
//! ## The two phases of a swap
//!
//! A swap first *collects and conses*: for each interacting `x`-node it
//! reads out the four grandchild cofactors (pure reads) and hash-conses the
//! two new inner `x`-nodes.  No node is removed in this phase, which is
//! sound because the new keys (all grandchildren sit strictly below level
//! `y`) can never collide with the interacting nodes' old keys (each
//! contains a level-`y` child).  It then *relinks* in id order: removes
//! each old key, installs the relabelled node, maintains the reference
//! counts and reclaims dead `y`-nodes.

use crate::manager::{pack_children, Manager, Node};
use crate::NodeId;

/// Summary of one [`Manager::reorder`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Adjacent-level swaps performed.
    pub swaps: u64,
    /// Live nodes before the run (after the pre-reorder GC).
    pub size_before: usize,
    /// Live nodes after the run.
    pub size_after: usize,
    /// Wall-clock duration of the run, in microseconds.
    pub micros: u64,
}

impl Manager {
    /// Derives reference counts for every allocated node: one per stored
    /// parent edge plus one per registered root.  Freed arena slots count
    /// zero and are never referenced by live nodes.
    fn build_refs(&self) -> Vec<u32> {
        let bound = self.arena.id_bound();
        let mut refs = vec![0u32; bound];
        let mut free_mark = vec![false; bound];
        for f in self.free.snapshot() {
            free_mark[f as usize] = true;
        }
        self.arena.for_each_allocated(|id| {
            if free_mark[id as usize] {
                return;
            }
            let node = self.node_raw(id);
            refs[node.low.index()] += 1;
            refs[node.high.index()] += 1;
        });
        for root in &self.roots {
            refs[root.index()] += 1;
        }
        refs
    }

    /// Swaps the variables at `level` and `level + 1` in place, relinking
    /// only the interacting upper-level nodes (see the module docs).
    /// `refs` must hold the current reference counts and is kept exact.
    /// Returns the number of interacting nodes rewritten.
    fn swap_levels(&mut self, level: usize, refs: &mut Vec<u32>) -> usize {
        let x = self.level_to_var[level];
        let y = self.level_to_var[level + 1];
        // Phase 1 — collect and cons.  For each interacting x-node: read
        // out its four (x, y)-grandchild cofactors (the high edge's
        // complement bit is pushed into its children, the low edge is
        // regular already) and hash-cons the two new inner x-nodes.  Every
        // old key contains a level-y child while the new keys are built
        // from strictly-lower grandchildren, so consing before the phase-2
        // removals yields the same nodes the interleaved order would.
        let collect = |id: u32| -> Option<(u32, NodeId, NodeId, [NodeId; 4])> {
            let node = self.node_raw(id);
            let low = node.low;
            let high = node.high;
            let low_node = self.node_raw(low.index() as u32);
            let hreg_node = self.node_raw(high.regular().index() as u32);
            if low_node.var != y && hreg_node.var != y {
                return None;
            }
            let (f00, f01) = if low_node.var == y {
                (low_node.low, low_node.high)
            } else {
                (low, low)
            };
            let (f10, f11) = if hreg_node.var == y {
                let c = high.cmask();
                (hreg_node.low.xor_mask(c), hreg_node.high.xor_mask(c))
            } else {
                (high, high)
            };
            Some((id, low, high, [f00, f01, f10, f11]))
        };
        type Rewire = (u32, NodeId, NodeId, [(NodeId, bool); 2]);
        let rewired: Vec<Rewire> = self.subtables[x as usize]
            .ids()
            .into_iter()
            .filter_map(|id| {
                let (id, low, high, [f00, f01, f10, f11]) = collect(id)?;
                Some((
                    id,
                    low,
                    high,
                    [self.mk_core(x, f00, f10), self.mk_core(x, f01, f11)],
                ))
            })
            .collect();
        // Phase 2 — relink.  First initialise every freshly created node's
        // reference count and charge its children.  (The inits cannot
        // perturb the per-node death checks below: a created x-node's
        // children sit strictly below level y, and only y-nodes can die
        // here.)
        if refs.len() < self.arena.id_bound() {
            refs.resize(self.arena.id_bound(), 0);
        }
        for &(_, _, _, pair) in &rewired {
            for (edge, created) in pair {
                if created {
                    let node = self.node_raw(edge.index() as u32);
                    refs[edge.index()] = 0;
                    refs[node.low.index()] += 1;
                    refs[node.high.index()] += 1;
                }
            }
        }
        for &(id, low, high, [(a, _), (b, _)]) in &rewired {
            // The node's key changes: take the old key out of x's subtable
            // and install the relabelled node under y.
            self.subtables[x as usize].remove_exclusive(&self.arena, pack_children(low, high));
            self.table_len_add(-1);
            refs[a.index()] += 1;
            refs[b.index()] += 1;
            debug_assert!(!a.is_complemented(), "new low child must be regular");
            debug_assert!(a != b, "interacting node cannot become redundant");
            self.set_node_raw(
                id,
                Node {
                    var: y,
                    low: a,
                    high: b,
                },
            );
            self.subtables[y as usize].insert_exclusive(&self.arena, pack_children(a, b), id);
            self.table_len_add(1);
            // The old children each lose one parent; a y-node dropping to
            // zero references dies on the spot.  (Nothing below y can die:
            // every grandchild is re-referenced through `a`/`b`.)
            for child in [low, high.regular()] {
                let ci = child.index();
                refs[ci] -= 1;
                if refs[ci] == 0 && self.node_raw(ci as u32).var == y {
                    let dead = self.node_raw(ci as u32);
                    self.subtables[y as usize]
                        .remove_exclusive(&self.arena, pack_children(dead.low, dead.high));
                    self.table_len_add(-1);
                    self.free_push(ci as u32);
                    refs[dead.low.index()] -= 1;
                    refs[dead.high.index()] -= 1;
                }
            }
        }
        // The variables trade places.
        self.level_to_var.swap(level, level + 1);
        self.var_to_level[x as usize] = (level + 1) as u32;
        self.var_to_level[y as usize] = level as u32;
        self.exclusive.reorder_swaps += 1;
        // Sifting can grow the diagram (up to the 1.2× limit) before the
        // sift-back shrinks it again; sample the high-water mark per swap
        // so `peak_nodes` sees the excursion.
        self.note_peak();
        rewired.len()
    }

    /// Swaps the variables at `level` and `level + 1` as a standalone
    /// operation: derives reference counts, swaps, and retires the cache
    /// epoch.  Every live edge keeps its id and its function; registered
    /// roots additionally pin their subgraphs against the swap's eager
    /// dead-node reclamation.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1 >= num_vars()`.
    pub fn swap_adjacent_levels(&mut self, level: usize) {
        assert!(
            level + 1 < self.num_vars(),
            "swap level {level} out of range"
        );
        self.note_peak();
        let mut refs = self.build_refs();
        self.swap_levels(level, &mut refs);
        self.invalidate_caches();
    }

    /// One sifting pass over every variable, largest subtable first.
    fn sift_pass(&mut self, refs: &mut Vec<u32>) {
        let mut vars = self.level_to_var.clone();
        vars.sort_by_key(|&v| std::cmp::Reverse(self.subtables[v as usize].len()));
        for var in vars {
            if self.subtables[var as usize].len() == 0 {
                continue;
            }
            // A manager over its node/byte budget stops exploring: the
            // remaining variables keep their levels, and the caller (or a
            // GC) decides how to recover.  Each sift_var below also gates
            // its own direction loops, so one oversized variable cannot
            // blow past the limit either.
            if self.budget_exceeded() {
                break;
            }
            self.sift_var(var, refs);
        }
    }

    /// Moves `var` through every level of the order, then parks it at
    /// the best position seen.  The classic growth limit aborts a direction
    /// once the diagram exceeds 1.2× the size at which the sift started;
    /// after each direction the variable sifts *back to the best seen
    /// position* first, so an aborted first direction never starves the
    /// second one (the return journey undoes the growth, making the limit
    /// guard irrelevant to it).
    fn sift_var(&mut self, var: u32, refs: &mut Vec<u32>) {
        let bound = self.num_vars();
        let start = self.var_to_level[var as usize] as usize;
        let start_size = self.live_table_len();
        let limit = (start_size + start_size / 5).max(start_size + 20);
        let mut level = start;
        let mut best_size = start_size;
        let mut best_level = start;
        let down_first = bound - 1 - start <= start;
        for phase in 0..2 {
            let go_down = (phase == 0) == down_first;
            if go_down {
                while level + 1 < bound {
                    self.swap_levels(level, refs);
                    level += 1;
                    if self.live_table_len() < best_size {
                        best_size = self.live_table_len();
                        best_level = level;
                    }
                    // The budget check mirrors the growth limit: stop
                    // exploring (the park-at-best loops below shrink the
                    // diagram back, so they stay un-gated).
                    if self.live_table_len() > limit || self.budget_exceeded() {
                        break;
                    }
                }
            } else {
                while level > 0 {
                    self.swap_levels(level - 1, refs);
                    level -= 1;
                    if self.live_table_len() < best_size {
                        best_size = self.live_table_len();
                        best_level = level;
                    }
                    if self.live_table_len() > limit || self.budget_exceeded() {
                        break;
                    }
                }
            }
            // Park at the best position seen so far: restores the size
            // before the other direction explores (and doubles as the final
            // placement after the second phase).
            while level < best_level {
                self.swap_levels(level, refs);
                level += 1;
            }
            while level > best_level {
                self.swap_levels(level - 1, refs);
                level -= 1;
            }
        }
        debug_assert_eq!(
            self.live_table_len(),
            best_size,
            "sift-back must restore size"
        );
    }

    /// Full Rudell sifting: garbage-collects against the registered roots
    /// (when any are registered, so sizes are honest), sifts every
    /// variable once, and retires the op-cache epoch.  Every surviving edge
    /// keeps its id and function, so external handles — registered or not —
    /// remain valid; registration is what *guarantees* survival.
    pub fn reorder(&mut self) -> ReorderStats {
        let started = std::time::Instant::now();
        if self.num_vars() < 2 {
            return ReorderStats::default();
        }
        self.note_peak();
        if !self.roots.is_empty() {
            self.collect_garbage_registered();
        }
        let swaps_before = self.exclusive.reorder_swaps;
        let size_before = self.live_table_len();
        let mut refs = self.build_refs();
        self.sift_pass(&mut refs);
        self.invalidate_caches();
        let stats = ReorderStats {
            swaps: self.exclusive.reorder_swaps - swaps_before,
            size_before,
            size_after: self.live_table_len(),
            micros: started.elapsed().as_micros() as u64,
        };
        self.exclusive.reorders += 1;
        self.exclusive.reorder_last_before = size_before;
        self.exclusive.reorder_last_after = stats.size_after;
        self.exclusive.reorder_micros += stats.micros;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    /// A non-trivial function whose size depends strongly on the order:
    /// pairwise ANDs `x_i ∧ x_{i+n/2}` OR-ed together are linear when pairs
    /// are adjacent and exponential when interleaved.
    fn paired_or(mgr: &mut Manager, n: usize) -> NodeId {
        let mut acc = NodeId::FALSE;
        for i in 0..n / 2 {
            let a = mgr.var(i);
            let b = mgr.var(i + n / 2);
            let ab = mgr.and(a, b);
            acc = mgr.or(acc, ab);
        }
        acc
    }

    #[test]
    fn swap_preserves_functions_and_ids() {
        let mut mgr = Manager::new(4);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let z = mgr.var(2);
        let xy = mgr.and(x, y);
        let f = mgr.xor(xy, z);
        let slot = mgr.register_root(f);
        let truth: Vec<bool> = (0..16u32)
            .map(|bits| {
                mgr.eval(
                    f,
                    &[bits & 1 == 1, bits & 2 == 2, bits & 4 == 4, bits & 8 == 8],
                )
            })
            .collect();
        for level in [0usize, 1, 2, 0, 2, 1] {
            mgr.swap_adjacent_levels(level);
            mgr.check_integrity().expect("integrity after swap");
            let now: Vec<bool> = (0..16u32)
                .map(|bits| {
                    mgr.eval(
                        f,
                        &[bits & 1 == 1, bits & 2 == 2, bits & 4 == 4, bits & 8 == 8],
                    )
                })
                .collect();
            assert_eq!(now, truth, "swap must preserve every function");
        }
        assert_eq!(mgr.root(slot), f, "registered root id is untouched");
    }

    #[test]
    fn swap_is_its_own_inverse_on_node_count() {
        let mut mgr = Manager::new(6);
        let f = paired_or(&mut mgr, 6);
        let _slot = mgr.register_root(f);
        mgr.collect_garbage_registered();
        let count = mgr.allocated_nodes();
        for level in 0..5 {
            mgr.swap_adjacent_levels(level);
            mgr.swap_adjacent_levels(level);
            assert_eq!(
                mgr.allocated_nodes(),
                count,
                "swap ∘ swap at level {level} must restore the exact size"
            );
            mgr.check_integrity().expect("integrity");
        }
    }

    #[test]
    fn sifting_finds_the_linear_order_for_paired_ands() {
        let n = 12;
        let mut mgr = Manager::new(n);
        let f = paired_or(&mut mgr, n);
        let slot = mgr.register_root(f);
        mgr.collect_garbage_registered();
        let before = mgr.allocated_nodes();
        let stats = mgr.reorder();
        mgr.check_integrity().expect("integrity after sifting");
        assert_eq!(stats.size_before, before);
        assert!(
            stats.size_after * 2 < before,
            "interleaved pairs must shrink a lot: {before} -> {}",
            stats.size_after
        );
        assert_eq!(mgr.root(slot), f);
        // The function is intact under the new order.
        for i in 0..n / 2 {
            let mut assignment = vec![false; n];
            assignment[i] = true;
            assignment[i + n / 2] = true;
            assert!(mgr.eval(f, &assignment));
            assignment[i + n / 2] = false;
            assert!(!mgr.eval(f, &assignment));
        }
        assert_eq!(mgr.stats().reorders, 1);
        assert!(mgr.stats().reorder_swaps > 0);
    }

    #[test]
    fn maybe_reorder_triggers_on_threshold() {
        let n = 12;
        let mut mgr = Manager::new(n);
        mgr.set_auto_reorder(true);
        mgr.set_reorder_threshold(8);
        let f = paired_or(&mut mgr, n);
        let _slot = mgr.register_root(f);
        assert!(mgr.maybe_reorder(), "threshold exceeded: must reorder");
        assert_eq!(mgr.stats().reorders, 1);
        assert!(
            !mgr.maybe_reorder(),
            "threshold re-armed at twice the post-reorder size"
        );
    }
}
