//! The BDD manager: node storage, unique table, memoised operations and
//! garbage collection.
//!
//! The design mirrors what the paper needs from CUDD and nothing more:
//! *reduced ordered* BDDs **with complement edges**, a hash-consing unique
//! table, memoised Boolean operations, cofactor computation, SAT counting and
//! mark-and-sweep garbage collection driven by the caller (who knows the
//! root set).
//!
//! # Concurrency
//!
//! Since the sharded-kernel rework, every apply recursion (`and`, `xor`,
//! `ite`, `xor3`, `maj`, `flip_var`, `mux_var`, `cofactor`) and the node
//! constructor take **`&self`**: any number of threads may share one
//! manager and apply operations concurrently.  The per-variable unique
//! subtables are the shards — hash consing publishes nodes with a lock-free
//! CAS, the operation caches are per-entry seqlocks, and statistics are
//! thread-sharded.  Garbage collection, variable reordering, cache growth
//! and root-registry updates remain **`&mut self`**, so the borrow checker
//! itself guarantees the stop-the-world property: an exclusive phase cannot
//! overlap an apply recursion.  See [`crate::shard`] for the full
//! synchronization argument, and [`crate::pool::WorkerPool`] for the
//! fan-out used by the simulator.
//!
//! The kernel is additionally **phase-typed**: every apply recursion and
//! `mk` are compiled in two flavours through a `const SERIAL: bool`
//! parameter.  The shared flavour is the machinery above; the serial
//! flavour — selected per manager with [`Manager::set_kernel_mode`], an
//! exclusive-phase (`&mut self`) switch — drops the coordination entirely
//! (no seqlock claim/release on cache stores, no speculate-then-publish
//! CAS in `mk`, no atomic read-modify-writes on the bump allocator and
//! counters), so a single-threaded session pays no concurrency tax.  Both
//! flavours hoist the thread-local stat-shard lookup to the public entry
//! point and thread it through the recursion.  [`KernelMode::Shared`]
//! remains the default; see [`crate::shard`] ("The phase-typed serial
//! flavour") for the soundness argument.
//!
//! # Complement edges
//!
//! Every [`NodeId`] is an *edge*: bits `0..31` index the node arena and bit
//! 31 is the **complement bit** (mask [`NodeId`]`::COMPLEMENT` internally).
//! An edge with the bit set denotes the *negation* of the function rooted at
//! its node.  There is a single terminal node (index 0) representing the
//! constant **true**; `NodeId::TRUE` is the regular edge to it and
//! `NodeId::FALSE` the complemented one.
//!
//! Canonical form (CUDD's rule): **the low/else edge of a stored node is
//! never complemented.**  [`Manager::mk`] enforces this by flipping both
//! children and complementing the returned edge whenever the low child
//! arrives complemented, so every Boolean function keeps exactly one
//! representation and `NodeId` equality remains semantic equality.
//!
//! Consequences exploited throughout the kernel:
//!
//! * **O(1) negation.** [`Manager::not`] flips one bit — no recursion, no
//!   cache, no allocation.  A function and its negation share their entire
//!   subgraph.
//! * **De Morgan folding.** `or(f, g) = ¬and(¬f, ¬g)`, so OR needs no
//!   recursion or cache of its own and shares the AND cache's entries.
//! * **XOR parity folding.** `¬f ⊕ g = ¬(f ⊕ g)`: complement bits are
//!   stripped off XOR/XOR3 operands and re-applied to the result, so the
//!   caches are probed with regular operands only and the XNOR terminal
//!   cases disappear (ITE routes `ite(f, g, ¬g)` straight to XOR).
//! * **Self-dual majority.** `maj(¬f, ¬g, ¬h) = ¬maj(f, g, h)` normalises
//!   the carry recursion to at most one complemented operand per cache key.
//!
//! # Kernel layout
//!
//! The bit-sliced simulator decomposes every gate into millions of tiny
//! Boolean operations, so this module is organised around making those calls
//! cheap:
//!
//! * **Specialised apply recursions.**  `and` and `xor` have dedicated
//!   two-operand recursions with commutative key normalisation; `not` and
//!   `or` reduce to them in O(1) via the complement bit.  On top of those,
//!   the gate formulas get single-pass recursions for their dominant
//!   three-operand shapes: [`Manager::xor3`] (the full-adder sum),
//!   [`Manager::maj`] (the full-adder carry), [`Manager::flip_var`] (the
//!   X-gate cofactor swap) and [`Manager::mux_var`] (ITE on a variable
//!   literal), each replacing a chain of two to four generic applies with
//!   one traversal.
//!
//! * **Lossy direct-mapped operation caches.**  Each operation memoises into
//!   a power-of-two array of seqlock-guarded entries indexed by a strong
//!   64-bit mix of the operand edges ([`crate::hash::mix64`]; complement
//!   bits are part of the key wherever they do not fold out).  A colliding
//!   insert simply overwrites the previous entry (counted as an *eviction*
//!   in [`CacheStats`]); a lookup compares the stored key words and treats
//!   any mismatch — including a torn concurrent read — as a miss.
//!   Memoisation therefore costs zero allocations on the hot path, and
//!   losing an entry only costs recomputation — never correctness.  Each
//!   cache starts at 2¹² entries and doubles (at the next exclusive phase)
//!   whenever the misses since the last resize exceed its capacity, up to a
//!   cap that itself is auto-tuned at GC time (up to 2²⁰).  All caches are
//!   cleared in O(1) at GC time by bumping a generation counter
//!   (`cache_epoch`).
//!
//! * **Per-variable unique subtables.**  Hash consing uses one open-addressed
//!   linear-probed subtable *per variable* whose atomic slots store the node
//!   id plus a hash tag; concurrent `mk` calls publish fresh nodes with a
//!   release CAS (see [`crate::shard`]).  Each subtable doubles
//!   independently when its load factor exceeds 3/4, supports exact
//!   backward-shift deletion (needed by reordering), and is rebuilt from the
//!   mark bitmap during [`Manager::collect_garbage`].
//!
//! # Variable order and reordering
//!
//! Nodes store the *variable index* of their label; a pair of permutation
//! arrays ([`Manager::var_at_level`] / [`Manager::level_of_var`]) maps
//! variables to their current position (level) in the order.  All the apply
//! recursions compare **levels**, so the order can change at runtime: the
//! [`crate::reorder`] module (see `reorder.rs`) implements an in-place
//! adjacent-level swap and Rudell-style sifting on top of the per-variable
//! subtables.  Because subtables are keyed by variable, a swap only touches
//! the upper-level nodes that actually depend on the lower variable — every
//! other node (and every external edge into the swapped levels) keeps its
//! id and its function.  The public read API (`eval`, `support`,
//! `pick_one`, `cofactor`, …) is expressed in *variable* space throughout,
//! so callers never observe the order.
//!
//! External handles survive reordering through the **root registry**
//! ([`Manager::register_root`]): registered edges act as GC roots and as
//! reference-count sources during reordering, so the nodes they reach are
//! never freed and the handles stay valid (same id, same function) across
//! any sequence of swaps.
//!
//! [`ManagerStats`] exposes per-cache hit/miss/eviction counters, O(1)
//! negation and canonical-flip counters, unique table resize counts,
//! reordering counters (swaps, sizes, time) and — since the sharded kernel —
//! contention counters (unique-table CAS retries, lost `mk` races, dropped
//! cache stores) so benchmark harnesses can report kernel behaviour.

use crate::count::ModelCounter;
use crate::shard::{
    DirectCache, FreeTable, NodeArena, StatShard, StatShards, SubTable, CACHE_DEFAULT_MAX_LOG2,
    CACHE_HARD_MAX_LOG2,
};
use sliq_bignum::UBig;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

pub(crate) use crate::shard::Node;

/// Complement-bit mask of a [`NodeId`] edge.
const COMPLEMENT: u32 = 1 << 31;

/// Handle to a BDD *edge* owned by a [`Manager`]: a node index in bits
/// `0..31` plus the complement bit 31.
///
/// `NodeId`s stay valid across garbage collections as long as the node is
/// reachable from one of the roots passed to [`Manager::collect_garbage`].
/// A `NodeId` and its [`NodeId::complement`] share the same node, so
/// [`NodeId::index`] alone does not identify a function — external memo
/// tables must key on the full `NodeId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The constant-true function: the regular edge to the terminal node.
    pub const TRUE: NodeId = NodeId(0);
    /// The constant-false function: the complemented edge to the terminal.
    pub const FALSE: NodeId = NodeId(COMPLEMENT);

    /// Returns `true` if this edge points at the terminal node (i.e. the
    /// function is constant true or false).
    pub fn is_terminal(self) -> bool {
        self.0 & !COMPLEMENT == 0
    }

    /// Returns `true` if this is the constant-false function.
    pub fn is_false(self) -> bool {
        self == Self::FALSE
    }

    /// Returns `true` if this is the constant-true function.
    pub fn is_true(self) -> bool {
        self == Self::TRUE
    }

    /// Returns `true` if the complement bit is set on this edge.
    pub fn is_complemented(self) -> bool {
        self.0 & COMPLEMENT != 0
    }

    /// The negation of this function — a pure bit flip, no manager needed.
    /// [`Manager::not`] is the counted, stats-visible spelling of the same
    /// operation.
    #[must_use]
    pub fn complement(self) -> NodeId {
        NodeId(self.0 ^ COMPLEMENT)
    }

    /// This edge with the complement bit cleared (the positive function of
    /// the shared node).
    #[must_use]
    pub fn regular(self) -> NodeId {
        NodeId(self.0 & !COMPLEMENT)
    }

    /// The raw node index (complement bit stripped).  Two edges with equal
    /// `index()` may still denote *different* functions — compare whole
    /// `NodeId`s for semantic identity.
    pub fn index(self) -> usize {
        (self.0 & !COMPLEMENT) as usize
    }

    /// The complement bit of this edge as a mask (0 or bit 31), for XOR
    /// application onto other edges.
    #[inline]
    pub(crate) fn cmask(self) -> u32 {
        self.0 & COMPLEMENT
    }

    /// This edge with `mask` (0 or the complement bit) XORed in.
    #[inline]
    pub(crate) fn xor_mask(self, mask: u32) -> NodeId {
        NodeId(self.0 ^ mask)
    }

    /// The raw edge word (arena storage form).
    #[inline]
    pub(crate) fn to_bits(self) -> u32 {
        self.0
    }

    /// An edge from its raw word.
    #[inline]
    pub(crate) fn from_bits(bits: u32) -> NodeId {
        NodeId(bits)
    }
}

/// Handle to a slot in the manager's root registry (see
/// [`Manager::register_root`]).  A registered edge survives garbage
/// collection and variable reordering: the manager treats it as a GC root
/// and as an external reference during level swaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootSlot(u32);

/// Level reported for terminal nodes: below every real variable.  The
/// terminal's stored `var` is the sentinel index `num_vars`, whose
/// `var_to_level` entry is kept at this value, so the hot-path level lookup
/// needs no branch.
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;

/// Default allocated-node count that arms the first automatic reordering
/// (CUDD arms its first reordering at a similar size).
pub(crate) const DEFAULT_REORDER_THRESHOLD: usize = 4096;

#[inline]
pub(crate) fn pack_children(low: NodeId, high: NodeId) -> u64 {
    ((low.0 as u64) << 32) | high.0 as u64
}

/// Which flavour of the phase-typed kernel a [`Manager`] runs its apply
/// recursions in (see the module docs and [`crate::shard`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum KernelMode {
    /// The concurrency-safe flavour: CAS publication in `mk`, seqlock
    /// claim/release on cache stores.  Any number of threads may share the
    /// manager.  The default.
    #[default]
    Shared,
    /// The unsynchronized fast-path flavour: plain probes and stores, no
    /// CAS, no seqlock protocol.  The manager must be used from exactly one
    /// thread at a time while this mode is selected; switching modes is an
    /// exclusive-phase (`&mut self`) action.
    Serial,
}

/// Hit/miss/eviction counters of one direct-mapped operation cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the recursion.
    pub misses: u64,
    /// Stores that overwrote a live entry with a different key (the lossy
    /// direct-mapped collision case).
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn merged_into(self, total: &mut CacheStats) {
        total.hits += self.hits;
        total.misses += self.misses;
        total.evictions += self.evictions;
    }
}

/// Counters describing the work a [`Manager`] has performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Which kernel flavour ([`KernelMode`]) the manager was running when
    /// the snapshot was taken — makes fast-path regressions visible instead
    /// of inferred from timings.
    pub kernel_mode: KernelMode,
    /// Number of garbage collections run so far.
    pub gc_runs: usize,
    /// Peak number of live (allocated, non-freed) nodes observed.
    pub peak_nodes: usize,
    /// Allocated (live or garbage, not yet freed) nodes at snapshot time.
    pub allocated_nodes: usize,
    /// Exact retained kernel bytes at snapshot time: arena chunk cells and
    /// sidecars, the chunk directory, unique-subtable slot arrays and
    /// op-cache words (see [`crate::shard`], "Byte accounting").
    pub current_bytes: usize,
    /// High-water mark of [`ManagerStats::current_bytes`].
    pub peak_bytes: usize,
    /// Arena chunk-cell bytes (8 per node slot) at snapshot time.
    pub arena_cell_bytes: usize,
    /// Variable-sidecar bytes of reorder-mixed chunks at snapshot time.
    pub arena_sidecar_bytes: usize,
    /// Unique-subtable slot-array bytes (4 per slot) at snapshot time.
    pub subtable_bytes: usize,
    /// Node chunks handed back to the allocator by the generational sweep.
    pub chunks_reclaimed: u64,
    /// Total nodes ever created (including ones later collected).
    pub created_nodes: usize,
    /// Number of times an open-addressed unique subtable doubled.
    pub unique_resizes: usize,
    /// Number of unique-table shards (one open-addressed subtable per
    /// variable; threads working at different levels never share a shard).
    pub unique_shards: usize,
    /// Unique-table CAS attempts that lost a slot to a racing insert and
    /// re-probed (a direct measure of same-shard contention).
    pub unique_cas_retries: u64,
    /// `mk` races lost outright: a speculative node was allocated but a
    /// concurrent thread published the same key first, so the node was
    /// rolled back and the winner's id adopted.
    pub unique_dup_races: u64,
    /// Operation-cache stores dropped because the entry's seqlock was held
    /// by a racing writer (lossy by design; never affects correctness).
    pub cache_write_skips: u64,
    /// O(1) complement-edge negations served by [`Manager::not`] (each one
    /// replaces a full traversal of the pre-complement-edge kernel).
    pub not_ops: u64,
    /// Canonical-form flips performed by `mk` (a complemented low edge was
    /// normalised by complementing both children and the result).
    pub complement_flips: u64,
    /// Current op-cache growth cap (log2 entries; starts at 2¹⁶).
    pub cache_cap_log2: u32,
    /// Times the GC auto-tuner raised the op-cache growth cap.
    pub cache_cap_raises: u32,
    /// Number of variable reorderings (sifting runs) performed.
    pub reorders: usize,
    /// Total adjacent-level swaps executed across all reorderings.
    pub reorder_swaps: u64,
    /// Live node count immediately before the most recent reordering.
    pub reorder_last_before: usize,
    /// Live node count immediately after the most recent reordering.
    pub reorder_last_after: usize,
    /// Total wall-clock time spent inside [`Manager::reorder`], in
    /// microseconds.
    pub reorder_micros: u64,
    /// Adjacent-level swaps whose relink batch was fanned over the worker
    /// pool (a subset of [`ManagerStats::reorder_swaps`]).
    pub reorder_parallel_batches: u64,
    /// Counters of the `and` apply cache (also serves `or` via De Morgan).
    pub and_cache: CacheStats,
    /// Counters of the `xor` apply cache (complement parity folded out).
    pub xor_cache: CacheStats,
    /// Counters of the `ite` cache.
    pub ite_cache: CacheStats,
    /// Counters of the `cofactor` cache.
    pub cofactor_cache: CacheStats,
    /// Counters of the three-operand `xor3` cache (the full-adder sum).
    pub xor3_cache: CacheStats,
    /// Counters of the three-operand `maj` cache (the full-adder carry).
    pub maj_cache: CacheStats,
    /// Counters of the `flip_var` cache (the X-gate permutation).
    pub flip_cache: CacheStats,
    /// Counters of the `mux_var` cache (ITE on a variable literal).
    pub mux_cache: CacheStats,
}

impl ManagerStats {
    /// Every operation cache's name and counters, in reporting order — the
    /// single enumeration aggregate consumers (totals, reports) loop over.
    /// `or` and `not` no longer appear: OR folds into the AND cache via
    /// De Morgan and NOT is a cache-free bit flip (see
    /// [`ManagerStats::not_ops`]).
    pub fn caches(&self) -> [(&'static str, &CacheStats); 8] {
        [
            ("and", &self.and_cache),
            ("xor", &self.xor_cache),
            ("ite", &self.ite_cache),
            ("cofactor", &self.cofactor_cache),
            ("xor3", &self.xor3_cache),
            ("maj", &self.maj_cache),
            ("flip", &self.flip_cache),
            ("mux", &self.mux_cache),
        ]
    }

    fn caches_mut(&mut self) -> [&mut CacheStats; 8] {
        [
            &mut self.and_cache,
            &mut self.xor_cache,
            &mut self.ite_cache,
            &mut self.cofactor_cache,
            &mut self.xor3_cache,
            &mut self.maj_cache,
            &mut self.flip_cache,
            &mut self.mux_cache,
        ]
    }

    /// Sum of every operation cache's counters.
    pub fn total_cache(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for (_, cache) in self.caches() {
            cache.merged_into(&mut total);
        }
        total
    }

    /// Overall cache hit rate across every operation cache.
    pub fn cache_hit_rate(&self) -> f64 {
        self.total_cache().hit_rate()
    }

    /// Node-storage bytes per allocated node: arena cells + sidecars +
    /// subtable slots over the allocated-node count (0 when empty).  The
    /// op caches are excluded — their size tracks the workload, not the
    /// node population — so this is the metric the compact layout moves.
    pub fn bytes_per_node(&self) -> f64 {
        if self.allocated_nodes == 0 {
            return 0.0;
        }
        (self.arena_cell_bytes + self.arena_sidecar_bytes + self.subtable_bytes) as f64
            / self.allocated_nodes as f64
    }
}

/// Counters mutated only in the exclusive phase (`&mut Manager`), so they
/// need no atomics.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SerialStats {
    pub(crate) gc_runs: usize,
    pub(crate) cache_cap_log2: u32,
    pub(crate) cache_cap_raises: u32,
    pub(crate) reorders: usize,
    pub(crate) reorder_swaps: u64,
    pub(crate) reorder_last_before: usize,
    pub(crate) reorder_last_after: usize,
    pub(crate) reorder_micros: u64,
    pub(crate) reorder_parallel_batches: u64,
}

/// Cache indices into `Manager::caches` and `StatShard::caches` (the same
/// order as [`ManagerStats::caches`]).
const AND: usize = 0;
const XOR: usize = 1;
const ITE: usize = 2;
const COFACTOR: usize = 3;
const XOR3: usize = 4;
const MAJ: usize = 5;
const FLIP: usize = 6;
const MUX: usize = 7;

/// A reduced ordered BDD manager with complement edges.
///
/// Variables are identified by their index `0..num_vars()`, which is also the
/// variable order (index 0 is the topmost level).  The simulator places qubit
/// variables first and measurement-encoding variables after them, matching
/// the ordering requirement of the paper's measurement procedure (§III-E).
///
/// Apply operations take `&self` and may be called from any number of
/// threads sharing the manager (e.g. through [`crate::pool::WorkerPool`] or
/// `std::thread::scope`); garbage collection and reordering take `&mut
/// self` and therefore cannot overlap them.
///
/// ```
/// use sliq_bdd::{Manager, NodeId};
/// let mut mgr = Manager::new(2);
/// let x0 = mgr.var(0);
/// let x1 = mgr.var(1);
/// let f = mgr.and(x0, x1);
/// assert!(mgr.eval(f, &[true, true]));
/// assert!(!mgr.eval(f, &[true, false]));
/// assert_eq!(mgr.sat_count(f, 2), sliq_bignum::UBig::from(1u64));
/// assert_ne!(f, NodeId::FALSE);
/// // Negation is a bit flip: no nodes are allocated.
/// let nodes_before = mgr.stats().created_nodes;
/// let nf = mgr.not(f);
/// assert_eq!(mgr.stats().created_nodes, nodes_before);
/// assert_eq!(mgr.not(nf), f);
/// ```
#[derive(Debug)]
pub struct Manager {
    pub(crate) arena: NodeArena,
    pub(crate) free: FreeTable,
    /// One open-addressed unique subtable (shard) per variable.
    pub(crate) subtables: Vec<SubTable>,
    /// Total number of live entries across all subtables (= allocated nodes).
    pub(crate) table_len: AtomicUsize,
    /// `var_to_level[var]` is the current level of `var`; the extra last
    /// entry is the terminal sentinel, pinned at [`TERMINAL_LEVEL`].
    pub(crate) var_to_level: Vec<u32>,
    /// `level_to_var[level]` is the variable currently at `level`.
    pub(crate) level_to_var: Vec<u32>,
    /// Registered external roots: GC roots and reorder protection.  Released
    /// slots hold `NodeId::TRUE` and are recycled through `free_roots`.
    pub(crate) roots: Vec<NodeId>,
    free_roots: Vec<u32>,
    /// Automatic reordering trigger (off by default).
    auto_reorder: bool,
    /// Allocated-node count beyond which [`Manager::maybe_reorder`] sifts.
    reorder_threshold: usize,
    /// Caller-configured lower bound the re-armed threshold never drops
    /// below (defaults to [`DEFAULT_REORDER_THRESHOLD`]).
    reorder_threshold_floor: usize,
    /// Number of top levels eligible for sifting (`usize::MAX` = all).
    /// Variables below the window never move — used by the simulator to pin
    /// auxiliary encoding variables underneath the qubit block.
    pub(crate) reorder_window: usize,
    /// Whether [`Manager::reorder`] repeats sifting passes to convergence.
    pub(crate) converging_sifting: bool,
    /// The eight operation caches, indexed by the `AND..MUX` constants.
    caches: [DirectCache; 8],
    /// Generation stamp giving O(1) cache clear: entries whose `epoch` field
    /// differs are stale.
    cache_epoch: AtomicU32,
    num_vars: u32,
    gc_threshold: usize,
    /// Hard allocated-node budget (`None` = unbounded); checked by
    /// [`Manager::budget_exceeded`] together with the byte budget the
    /// arena's [`crate::shard::MemTracker`] carries.
    node_limit: Option<usize>,
    /// Current op-cache growth cap (log2), raised by the GC auto-tuner.
    cache_max_log2: u32,
    /// Total-cache miss/eviction counts at the end of the previous GC, for
    /// the auto-tuner's per-GC-interval rates.
    misses_at_last_gc: u64,
    evictions_at_last_gc: u64,
    /// Consecutive GC intervals whose eviction rate exceeded the threshold.
    high_eviction_streak: u32,
    /// Unique subtable doublings (shared phase, hence atomic).
    unique_resizes: AtomicUsize,
    /// Peak allocated nodes; exact because nodes are only freed in the
    /// exclusive phase, which records the pre-free high-water mark.
    peak_nodes: AtomicUsize,
    /// Hot-path counters, sharded by thread.
    pub(crate) shards: StatShards,
    /// Exclusive-phase counters.
    pub(crate) serial: SerialStats,
    /// Which flavour of the phase-typed kernel the apply entry points
    /// dispatch to (see [`KernelMode`]).  Mutated only via `&mut self`.
    mode: KernelMode,
    /// Worker threads [`Manager::reorder`] fans the per-swap relink batch
    /// over (1 = fully serial sifting).
    pub(crate) reorder_threads: usize,
}

impl Clone for Manager {
    fn clone(&self) -> Self {
        // Clone is for QUIESCENT managers: a clone racing shared-phase
        // inserts may be structurally inconsistent (an id mid-`mk` — popped
        // from the free list or awaiting its rollback push — can land in
        // neither the cloned free list nor a cloned subtable, so node
        // accounting and `check_integrity` can disagree on the clone).  The
        // ordering below only guarantees a racy clone never *dangles*:
        // subtables first (acquire-loaded slots), arena last, so every id a
        // cloned slot carries was bump-allocated before its publish CAS and
        // is therefore covered by the later arena snapshot with visible
        // fields.
        let subtables = self.subtables.clone();
        let free = self.free.clone();
        let arena = self.arena.clone();
        Self {
            arena,
            free,
            subtables,
            table_len: AtomicUsize::new(self.table_len.load(Ordering::Relaxed)),
            var_to_level: self.var_to_level.clone(),
            level_to_var: self.level_to_var.clone(),
            roots: self.roots.clone(),
            free_roots: self.free_roots.clone(),
            auto_reorder: self.auto_reorder,
            reorder_threshold: self.reorder_threshold,
            reorder_threshold_floor: self.reorder_threshold_floor,
            reorder_window: self.reorder_window,
            converging_sifting: self.converging_sifting,
            caches: self.caches.clone(),
            cache_epoch: AtomicU32::new(self.cache_epoch.load(Ordering::Relaxed)),
            num_vars: self.num_vars,
            gc_threshold: self.gc_threshold,
            node_limit: self.node_limit,
            cache_max_log2: self.cache_max_log2,
            misses_at_last_gc: self.misses_at_last_gc,
            evictions_at_last_gc: self.evictions_at_last_gc,
            high_eviction_streak: self.high_eviction_streak,
            unique_resizes: AtomicUsize::new(self.unique_resizes.load(Ordering::Relaxed)),
            peak_nodes: AtomicUsize::new(self.peak_nodes.load(Ordering::Relaxed)),
            shards: self.shards.clone(),
            serial: self.serial,
            mode: self.mode,
            reorder_threads: self.reorder_threads,
        }
    }
}

impl Manager {
    /// Creates a manager with `num_vars` Boolean variables, initially in the
    /// identity order (variable `i` at level `i`).
    pub fn new(num_vars: usize) -> Self {
        let mut var_to_level: Vec<u32> = (0..num_vars as u32).collect();
        var_to_level.push(TERMINAL_LEVEL);
        let mgr = Self {
            // The sentinel variable index; its var_to_level entry is pinned
            // at TERMINAL_LEVEL so level lookups need no terminal branch.
            arena: NodeArena::new(num_vars as u32),
            free: FreeTable::new(num_vars),
            subtables: (0..num_vars).map(|_| SubTable::new()).collect(),
            table_len: AtomicUsize::new(0),
            var_to_level,
            level_to_var: (0..num_vars as u32).collect(),
            roots: Vec::new(),
            free_roots: Vec::new(),
            auto_reorder: false,
            reorder_threshold: DEFAULT_REORDER_THRESHOLD,
            reorder_threshold_floor: DEFAULT_REORDER_THRESHOLD,
            reorder_window: usize::MAX,
            converging_sifting: false,
            caches: [
                DirectCache::new(2), // and
                DirectCache::new(2), // xor
                DirectCache::new(3), // ite
                DirectCache::new(2), // cofactor
                DirectCache::new(3), // xor3
                DirectCache::new(3), // maj
                DirectCache::new(2), // flip
                DirectCache::new(3), // mux
            ],
            cache_epoch: AtomicU32::new(1),
            num_vars: num_vars as u32,
            gc_threshold: 1 << 16,
            node_limit: None,
            cache_max_log2: CACHE_DEFAULT_MAX_LOG2,
            misses_at_last_gc: 0,
            evictions_at_last_gc: 0,
            high_eviction_streak: 0,
            unique_resizes: AtomicUsize::new(0),
            peak_nodes: AtomicUsize::new(0),
            shards: StatShards::new(),
            serial: SerialStats {
                cache_cap_log2: CACHE_DEFAULT_MAX_LOG2,
                ..SerialStats::default()
            },
            mode: KernelMode::Shared,
            reorder_threads: 1,
        };
        // Charge the retained footprint the struct literal could not: the
        // fresh subtables' slot arrays and the op-cache word arrays.  (The
        // arena charged its own chunk directory and terminal chunk.)
        let initial = num_vars * SubTable::initial_bytes()
            + mgr.caches.iter().map(DirectCache::bytes).sum::<usize>();
        mgr.arena.mem().add(initial);
        mgr
    }

    /// Selects the kernel flavour the apply entry points dispatch to.
    /// Taking `&mut self` makes the switch an exclusive-phase action: no
    /// apply recursion can be in flight, so the flavours never interleave
    /// on one operation.  Callers selecting [`KernelMode::Serial`] promise
    /// single-threaded use until the mode is switched back.
    pub fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.mode = mode;
    }

    /// The currently selected kernel flavour.
    pub fn kernel_mode(&self) -> KernelMode {
        self.mode
    }

    /// Sets how many worker threads [`Manager::reorder`] fans each swap's
    /// relink batch over (clamped to at least 1).  Orthogonal to the kernel
    /// mode: the parallel batch always uses the shared `mk` flavour.
    pub fn set_reorder_threads(&mut self, threads: usize) {
        self.reorder_threads = threads.max(1);
    }

    /// The reordering fan-out width.
    pub fn reorder_threads(&self) -> usize {
        self.reorder_threads
    }

    /// The number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// Declares `extra` additional variables (appended below the existing
    /// ones in the order) and returns the index of the first new variable.
    pub fn add_vars(&mut self, extra: usize) -> usize {
        let first = self.num_vars as usize;
        self.num_vars += extra as u32;
        // The new variables start at the bottom levels; the terminal
        // sentinel entry moves to the new end of `var_to_level`.
        self.var_to_level.pop();
        for i in 0..extra {
            self.var_to_level.push((first + i) as u32);
            self.level_to_var.push((first + i) as u32);
            self.subtables.push(SubTable::new());
        }
        self.var_to_level.push(TERMINAL_LEVEL);
        self.arena.add_vars(extra, self.num_vars);
        self.free.add_vars(extra);
        self.arena.mem().add(extra * SubTable::initial_bytes());
        first
    }

    /// The variable currently at `level` (level 0 is the top of the order).
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_vars()`.
    pub fn var_at_level(&self, level: usize) -> usize {
        self.level_to_var[level] as usize
    }

    /// The current level of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars()`.
    pub fn level_of_var(&self, var: usize) -> usize {
        assert!(var < self.num_vars as usize, "variable {var} out of range");
        self.var_to_level[var] as usize
    }

    /// The current variable order, top level first.
    pub fn current_order(&self) -> Vec<usize> {
        self.level_to_var.iter().map(|&v| v as usize).collect()
    }

    /// Records the current allocation level as a peak candidate.  Nodes are
    /// only ever freed in the exclusive phase, so sampling on entry to
    /// GC/reordering, after every adjacent-level swap, and from
    /// [`Manager::stats`] keeps the peak exact up to the transient
    /// allocations *inside* a single swap (a handful of nodes created just
    /// before their dead counterparts are reclaimed).
    #[inline]
    pub(crate) fn note_peak(&self) {
        self.peak_nodes
            .fetch_max(self.allocated_nodes(), Ordering::Relaxed);
    }

    /// Operational statistics: a snapshot summed over the thread shards.
    pub fn stats(&self) -> ManagerStats {
        self.note_peak();
        let (arena_cell_bytes, arena_sidecar_bytes) = self.arena.arena_bytes();
        let mut stats = ManagerStats {
            kernel_mode: self.mode,
            gc_runs: self.serial.gc_runs,
            peak_nodes: self.peak_nodes.load(Ordering::Relaxed),
            allocated_nodes: self.allocated_nodes(),
            current_bytes: self.arena.mem().bytes(),
            peak_bytes: self.arena.mem().peak(),
            arena_cell_bytes,
            arena_sidecar_bytes,
            subtable_bytes: self.subtables.iter().map(SubTable::slot_bytes).sum(),
            chunks_reclaimed: self.arena.chunks_reclaimed(),
            unique_resizes: self.unique_resizes.load(Ordering::Relaxed),
            unique_shards: self.num_vars as usize,
            cache_cap_log2: self.serial.cache_cap_log2,
            cache_cap_raises: self.serial.cache_cap_raises,
            reorders: self.serial.reorders,
            reorder_swaps: self.serial.reorder_swaps,
            reorder_last_before: self.serial.reorder_last_before,
            reorder_last_after: self.serial.reorder_last_after,
            reorder_micros: self.serial.reorder_micros,
            reorder_parallel_batches: self.serial.reorder_parallel_batches,
            ..ManagerStats::default()
        };
        for shard in self.shards.iter() {
            stats.not_ops += shard.not_ops.load(Ordering::Relaxed);
            stats.complement_flips += shard.complement_flips.load(Ordering::Relaxed);
            stats.created_nodes += shard.created_nodes.load(Ordering::Relaxed) as usize;
            stats.unique_cas_retries += shard.unique_cas_retries.load(Ordering::Relaxed);
            stats.unique_dup_races += shard.unique_dup_races.load(Ordering::Relaxed);
            stats.cache_write_skips += shard.cache_write_skips.load(Ordering::Relaxed);
            for (which, totals) in stats.caches_mut().into_iter().enumerate() {
                totals.hits += shard.caches[which].hits.load(Ordering::Relaxed);
                totals.misses += shard.caches[which].misses.load(Ordering::Relaxed);
                totals.evictions += shard.caches[which].evictions.load(Ordering::Relaxed);
            }
        }
        stats
    }

    /// The number of currently allocated (live or garbage, not yet freed)
    /// nodes, excluding the terminal.  Exactly the unique-table population:
    /// a node is in its variable's subtable from publication until the
    /// exclusive phase frees it.
    pub fn allocated_nodes(&self) -> usize {
        self.table_len.load(Ordering::Relaxed)
    }

    /// Sets (or clears) the hard allocated-node budget enforced through
    /// [`Manager::budget_exceeded`].
    pub fn set_node_limit(&mut self, limit: Option<usize>) {
        self.node_limit = limit;
    }

    /// Sets (or clears) the hard retained-byte budget (arena + subtables +
    /// operation caches) enforced through [`Manager::budget_exceeded`].
    pub fn set_max_bytes(&mut self, limit: Option<usize>) {
        self.arena.mem().set_limit(limit);
    }

    /// Whether the manager currently exceeds its node or byte budget.
    /// Non-sticky: a GC (or restore) that recovers below the limits makes
    /// this `false` again, so capacity errors are graceful, not fatal.
    pub fn budget_exceeded(&self) -> bool {
        self.arena.mem().over_budget()
            || self
                .node_limit
                .is_some_and(|limit| self.allocated_nodes() > limit)
    }

    /// The exact retained bytes of the kernel right now (chunk cells and
    /// sidecars, chunk directory, subtable slot arrays, op-cache words).
    pub fn current_bytes(&self) -> usize {
        self.arena.mem().bytes()
    }

    /// High-water mark of [`Manager::current_bytes`].
    pub fn peak_bytes(&self) -> usize {
        self.arena.mem().peak()
    }

    /// The configured byte budget, if any.
    pub fn max_bytes(&self) -> Option<usize> {
        self.arena.mem().limit()
    }

    /// The current cache epoch (relaxed load; changes only in the exclusive
    /// phase).
    #[inline]
    fn epoch(&self) -> u32 {
        self.cache_epoch.load(Ordering::Relaxed)
    }

    // Flavour-dispatched cache accessors.  The stat shard is *passed in*:
    // the apply entry points look it up once and thread it through the
    // recursion, so the thread-local access is paid per apply call, not per
    // recursive step.

    #[inline]
    fn cache_probe2<const SERIAL: bool>(
        &self,
        which: usize,
        epoch: u32,
        key: u64,
    ) -> Option<NodeId> {
        if SERIAL {
            self.caches[which].probe2_serial(epoch, key)
        } else {
            self.caches[which].probe2(epoch, key)
        }
    }

    #[inline]
    fn cache_probe3<const SERIAL: bool>(
        &self,
        which: usize,
        epoch: u32,
        key_fg: u64,
        key_h: u64,
    ) -> Option<NodeId> {
        if SERIAL {
            self.caches[which].probe3_serial(epoch, key_fg, key_h)
        } else {
            self.caches[which].probe3(epoch, key_fg, key_h)
        }
    }

    #[inline]
    fn cache_store2<const SERIAL: bool>(
        &self,
        shard: &StatShard,
        which: usize,
        epoch: u32,
        key: u64,
        result: NodeId,
    ) {
        if SERIAL {
            self.caches[which].store2_serial(&shard.caches[which], epoch, key, result);
        } else {
            self.caches[which].store2(&shard.caches[which], shard, epoch, key, result);
        }
    }

    #[inline]
    fn cache_store3<const SERIAL: bool>(
        &self,
        shard: &StatShard,
        which: usize,
        epoch: u32,
        key_fg: u64,
        key_h: u64,
        result: NodeId,
    ) {
        if SERIAL {
            self.caches[which].store3_serial(&shard.caches[which], epoch, key_fg, key_h, result);
        } else {
            self.caches[which].store3(&shard.caches[which], shard, epoch, key_fg, key_h, result);
        }
    }

    // ----------------------------------------------------------------- //
    // Root registry
    // ----------------------------------------------------------------- //

    /// Registers `f` as an external root.  Registered roots are implicitly
    /// added to every [`Manager::collect_garbage`] root set and act as
    /// reference-count sources during reordering, so the registered edge —
    /// and every node it reaches — keeps its id and its function across
    /// garbage collections and any sequence of level swaps.
    ///
    /// The returned slot stays valid until [`Manager::release_root`];
    /// overwrite the protected edge with [`Manager::set_root`].
    pub fn register_root(&mut self, f: NodeId) -> RootSlot {
        match self.free_roots.pop() {
            Some(slot) => {
                self.roots[slot as usize] = f;
                RootSlot(slot)
            }
            None => {
                self.roots.push(f);
                RootSlot((self.roots.len() - 1) as u32)
            }
        }
    }

    /// Replaces the edge protected by `slot`, returning the previous one.
    pub fn set_root(&mut self, slot: RootSlot, f: NodeId) -> NodeId {
        std::mem::replace(&mut self.roots[slot.0 as usize], f)
    }

    /// The edge currently protected by `slot`.
    pub fn root(&self, slot: RootSlot) -> NodeId {
        self.roots[slot.0 as usize]
    }

    /// Releases a registry slot, returning the edge it protected.  The slot
    /// must not be used afterwards.
    pub fn release_root(&mut self, slot: RootSlot) -> NodeId {
        self.free_roots.push(slot.0);
        // The terminal is always live, so a released slot is inert.
        std::mem::replace(&mut self.roots[slot.0 as usize], NodeId::TRUE)
    }

    /// The currently registered root edges (released slots read as the
    /// terminal, which is harmless for marking and counting).
    pub fn registered_roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Exhaustive structural validation, for tests and debugging: checks
    /// the canonical form (stored low edges regular, no redundant nodes),
    /// subtable membership (every allocated node in its variable's
    /// subtable under the right key, counts consistent), the order
    /// invariant (children strictly below their parent's level) and that
    /// the permutation arrays are inverse bijections.  Returns a
    /// description of the first violation, if any.
    pub fn check_integrity(&self) -> Result<(), String> {
        let n = self.num_vars as usize;
        for (var, &level) in self.var_to_level.iter().take(n).enumerate() {
            if self.level_to_var.get(level as usize).copied() != Some(var as u32) {
                return Err(format!("var {var} at level {level} not mapped back"));
            }
        }
        if self.var_to_level.len() != n + 1
            || self.var_to_level[n] != TERMINAL_LEVEL
            || self.arena.var_of(0) != self.num_vars
        {
            return Err("terminal sentinel mapping corrupted".to_string());
        }
        let id_bound = self.arena.id_bound();
        let mut free_mark = vec![false; id_bound];
        for f in self.free.snapshot() {
            free_mark[f as usize] = true;
        }
        let mut in_table = 0usize;
        for (var, subtable) in self.subtables.iter().enumerate() {
            let ids = subtable.ids();
            if subtable.len() != ids.len() {
                return Err(format!("subtable {var} length out of sync"));
            }
            for id in ids {
                in_table += 1;
                if id as usize >= id_bound || free_mark[id as usize] {
                    return Err(format!("subtable {var} holds freed node {id}"));
                }
                let node = self.arena.get(id);
                if node.var as usize != var {
                    return Err(format!("node {id} in wrong subtable {var}"));
                }
                if subtable.lookup(&self.arena, pack_children(node.low, node.high)) != Some(id) {
                    return Err(format!("node {id} not findable under its key"));
                }
            }
        }
        let table_len = self.table_len.load(Ordering::Relaxed);
        let slots = self.arena.allocated_slots();
        let free_len = self.free.len();
        if in_table != self.allocated_nodes() || in_table != table_len {
            return Err(format!(
                "table entries {in_table} vs allocated {} vs table_len {}",
                self.allocated_nodes(),
                table_len
            ));
        }
        if slots != in_table + free_len {
            return Err(format!(
                "arena slots {slots} vs table {in_table} + free {free_len}"
            ));
        }
        let mut violation: Option<String> = None;
        self.arena.for_each_allocated(|id| {
            if violation.is_some() || free_mark[id as usize] {
                return;
            }
            let node = self.arena.get(id);
            if node.low.is_complemented() {
                violation = Some(format!("node {id} stores a complemented low edge"));
            } else if node.low == node.high {
                violation = Some(format!("node {id} is redundant (low == high)"));
            } else {
                let level = self.var_to_level[node.var as usize];
                if self.level(node.low) <= level || self.level(node.high.regular()) <= level {
                    violation = Some(format!("node {id} has a child at or above its level"));
                }
            }
        });
        match violation {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    // ----------------------------------------------------------------- //
    // Construction primitives
    // ----------------------------------------------------------------- //

    /// The constant function for `value`.
    pub fn constant(&self, value: bool) -> NodeId {
        if value {
            NodeId::TRUE
        } else {
            NodeId::FALSE
        }
    }

    /// The positive literal of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn var(&self, var: usize) -> NodeId {
        assert!(var < self.num_vars as usize, "variable {var} out of range");
        self.mk(var as u32, NodeId::FALSE, NodeId::TRUE)
    }

    /// The negative literal of variable `var`.
    pub fn nvar(&self, var: usize) -> NodeId {
        assert!(var < self.num_vars as usize, "variable {var} out of range");
        self.mk(var as u32, NodeId::TRUE, NodeId::FALSE)
    }

    /// The current level of `f`'s top node ([`TERMINAL_LEVEL`] for
    /// terminals): one permutation-array lookup on top of the node read.
    #[inline]
    pub(crate) fn level(&self, f: NodeId) -> u32 {
        self.var_to_level[self.arena.var_of(f.index() as u32) as usize]
    }

    /// The variable labelling `f`'s top node (the sentinel `num_vars` for
    /// terminals).
    #[inline]
    pub(crate) fn var_of(&self, f: NodeId) -> u32 {
        self.arena.var_of(f.index() as u32)
    }

    /// The stored low child of `f`'s node (regular by canonical form),
    /// *without* `f`'s own complement bit applied.
    #[inline]
    pub(crate) fn raw_low(&self, f: NodeId) -> NodeId {
        self.arena.low_of(f.index() as u32)
    }

    /// The stored high child of `f`'s node, *without* `f`'s own complement
    /// bit applied.
    #[inline]
    pub(crate) fn raw_high(&self, f: NodeId) -> NodeId {
        self.arena.high_of(f.index() as u32)
    }

    /// The full stored node of an id (exclusive-phase bookkeeping and
    /// read-only traversals).
    #[inline]
    pub(crate) fn node_raw(&self, id: u32) -> Node {
        self.arena.get(id)
    }

    /// Overwrites a stored node, possibly changing its variable (exclusive
    /// phase: reordering relabels — may materialise the chunk's variable
    /// sidecar, see [`crate::shard`]).
    #[inline]
    pub(crate) fn set_node_raw(&mut self, id: u32, node: Node) {
        self.arena.write_relabel(id, node);
    }

    /// The semantic cofactors of `f` at its own top level: the stored
    /// children with `f`'s complement bit pushed down into them.
    #[inline]
    fn cofactors_of(&self, f: NodeId) -> (NodeId, NodeId) {
        let node = self.arena.get(f.index() as u32);
        let c = f.cmask();
        (node.low.xor_mask(c), node.high.xor_mask(c))
    }

    /// Returns `(level, low, high)` of a non-terminal edge, with the edge's
    /// complement bit pushed into the children (so recursing on the returned
    /// edges traverses the *function*, not just the shared node).
    ///
    /// The first component is the node's current **level** (order
    /// position), not its variable — map it through
    /// [`Manager::var_at_level`] when the variable identity matters.
    pub fn node(&self, f: NodeId) -> Option<(usize, NodeId, NodeId)> {
        if f.is_terminal() {
            None
        } else {
            let (low, high) = self.cofactors_of(f);
            Some((self.level(f) as usize, low, high))
        }
    }

    /// Allocates a node id homed under `var`: the variable's free list
    /// first, its active chunk's bump pointer second.
    fn alloc_node(&self, var: u32) -> u32 {
        match self.free.pop(var) {
            Some(id) => id,
            None => self.arena.bump(var),
        }
    }

    /// Serial-flavour allocation: same policy, non-RMW bump.
    fn alloc_node_serial(&self, var: u32) -> u32 {
        match self.free.pop(var) {
            Some(id) => id,
            None => self.arena.bump_serial(var),
        }
    }

    /// Hash-consing node constructor (the `MK` operation): finds or creates
    /// the node `(var, low, high)` through `var`'s unique subtable.
    /// Enforces the canonical form — if `low` arrives complemented, both
    /// children are flipped and the returned edge is complemented, so the
    /// *stored* low edge is always regular.  Safe to call concurrently; see
    /// [`crate::shard`] for the publication protocol.
    pub(crate) fn mk(&self, var: u32, low: NodeId, high: NodeId) -> NodeId {
        let (edge, _created) = self.mk_core(var, low, high);
        edge
    }

    /// Like [`Manager::mk`] but for a *level*: labels the node with the
    /// variable currently at `level` (the flavoured form the apply
    /// recursions use).
    #[inline]
    fn mk_level_in<const SERIAL: bool>(
        &self,
        shard: &StatShard,
        level: u32,
        low: NodeId,
        high: NodeId,
    ) -> NodeId {
        let var = self.level_to_var[level as usize];
        self.mk_in::<SERIAL>(shard, var, low, high)
    }

    /// The flavoured [`Manager::mk`] used inside the apply recursions (the
    /// stat shard is already hoisted there).
    #[inline]
    fn mk_in<const SERIAL: bool>(
        &self,
        shard: &StatShard,
        var: u32,
        low: NodeId,
        high: NodeId,
    ) -> NodeId {
        self.mk_core_in::<SERIAL>(shard, var, low, high, || {
            if SERIAL {
                self.alloc_node_serial(var)
            } else {
                self.alloc_node(var)
            }
        })
        .0
    }

    /// The `mk` workhorse; additionally reports whether a fresh node was
    /// allocated (the reordering swap needs this for its reference counts).
    /// Dispatches on the manager's [`KernelMode`].
    pub(crate) fn mk_core(&self, var: u32, low: NodeId, high: NodeId) -> (NodeId, bool) {
        let shard = self.shards.local();
        match self.mode {
            KernelMode::Serial => {
                self.mk_core_in::<true>(shard, var, low, high, || self.alloc_node_serial(var))
            }
            KernelMode::Shared => {
                self.mk_core_in::<false>(shard, var, low, high, || self.alloc_node(var))
            }
        }
    }

    /// The shared-flavour `mk` driven through a pre-acquired probe session
    /// over `var`'s subtable, with a caller-supplied id allocator and every
    /// per-cons shared-line RMW stripped: no read-guard acquisition, no
    /// free-list mutex, no subtable length or global `table_len` update
    /// (the caller batches those from its `created` counts via
    /// [`SubTable::len_add`](crate::shard::SubTable) and `table_len`).  The
    /// parallel reordering batch uses this: its worker threads cons
    /// thousands of nodes into the *same* subtable concurrently, and at
    /// ~100 ns per cons every shared cache-line RMW serializes the whole
    /// fan-out.  The caller must have `grow_for`-reserved the batch's
    /// worst-case insert count first.
    pub(crate) fn mk_session(
        &self,
        prober: &crate::shard::SubTableProber<'_>,
        var: u32,
        low: NodeId,
        high: NodeId,
        alloc: impl FnOnce() -> u32,
    ) -> (NodeId, bool) {
        if low == high {
            return (low, false);
        }
        let shard = self.shards.local();
        let out_c = low.cmask();
        if out_c != 0 {
            crate::shard::bump(&shard.complement_flips);
        }
        let low = low.xor_mask(out_c);
        let high = high.xor_mask(out_c);
        let children = pack_children(low, high);
        let (id, created, rollback) = prober.find_or_publish(
            &self.arena,
            children,
            || {
                let id = alloc();
                self.arena.write(id, Node { var, low, high });
                id
            },
            shard,
        );
        if let Some(speculative) = rollback {
            // Lost the publication race: the node was never visible, so its
            // id can be recycled immediately (rare enough that the free-list
            // mutex is fine here).  `alloc` only hands out ids homed under
            // `var`, so the push keeps the homing invariant.
            crate::shard::bump(&shard.unique_dup_races);
            self.free.push(var, speculative);
        }
        if created {
            crate::shard::bump(&shard.created_nodes);
        }
        (NodeId(id ^ out_c), created)
    }

    fn mk_core_in<const SERIAL: bool>(
        &self,
        shard: &StatShard,
        var: u32,
        low: NodeId,
        high: NodeId,
        alloc: impl Fn() -> u32,
    ) -> (NodeId, bool) {
        if low == high {
            return (low, false);
        }
        let out_c = low.cmask();
        if out_c != 0 {
            crate::shard::bump(&shard.complement_flips);
        }
        let low = low.xor_mask(out_c);
        let high = high.xor_mask(out_c);
        let children = pack_children(low, high);
        let subtable = &self.subtables[var as usize];
        let (id, created) = if SERIAL {
            // Serial flavour: one probe walk, plain store, no speculation.
            loop {
                match subtable.find_or_insert_serial(&self.arena, children, || {
                    let id = alloc();
                    self.arena.write(id, Node { var, low, high });
                    id
                }) {
                    Some(found) => break found,
                    None => {
                        if subtable.grow(&self.arena) {
                            self.unique_resizes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        } else {
            let mut speculative: Option<u32> = None;
            let (id, created, rollback) = loop {
                match subtable.find_or_publish(
                    &self.arena,
                    children,
                    speculative.take(),
                    || {
                        let id = alloc();
                        self.arena.write(id, Node { var, low, high });
                        id
                    },
                    shard,
                ) {
                    crate::shard::Consed::Done {
                        id,
                        created,
                        rollback,
                    } => break (id, created, rollback),
                    crate::shard::Consed::TableFull { speculative: spec } => {
                        // Concurrent inserts filled the table before anyone's
                        // post-insert growth ran; the probe released its read
                        // guard, so growing here cannot deadlock.  Keep the
                        // speculative node for the retry.
                        speculative = spec;
                        if subtable.grow(&self.arena) {
                            self.unique_resizes.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            };
            if let Some(speculative) = rollback {
                // Lost the publication race: the node was never visible, so
                // its id can be recycled immediately.
                crate::shard::bump(&shard.unique_dup_races);
                self.free.push(var, speculative);
            }
            (id, created)
        };
        if created {
            crate::shard::bump(&shard.created_nodes);
            if SERIAL {
                let len = self.table_len.load(Ordering::Relaxed);
                self.table_len.store(len + 1, Ordering::Relaxed);
            } else {
                self.table_len.fetch_add(1, Ordering::Relaxed);
            }
            if subtable.overloaded() && subtable.grow(&self.arena) {
                self.unique_resizes.fetch_add(1, Ordering::Relaxed);
            }
        }
        (NodeId(id ^ out_c), created)
    }

    /// Rebuilds every unique subtable and the free lists from the GC mark
    /// bitmap (exclusive phase), running the generational sweep: chunks
    /// with no survivors are released back to the allocator, mixed chunks
    /// whose survivors agree on a variable drop their sidecar, and dead
    /// cells are homed under their chunk's final owner.
    fn rebuild_table(&mut self, marked: &[bool]) {
        for subtable in self.subtables.iter_mut() {
            subtable.clear_exclusive();
        }
        let (live, free) = self.arena.sweep(marked);
        for &id in &live {
            let node = self.arena.get(id);
            let children = pack_children(node.low, node.high);
            self.subtables[node.var as usize].insert_exclusive(&self.arena, children, id);
        }
        self.free.replace_all(free);
        self.table_len.store(live.len(), Ordering::Relaxed);
    }

    // ----------------------------------------------------------------- //
    // Boolean operations
    // ----------------------------------------------------------------- //

    /// The cofactors of `f` with respect to `level`: `f`'s own children
    /// (complement pushed down) when `f` sits at `level`, else `f` twice.
    #[inline]
    fn split(&self, f: NodeId, level: u32) -> (NodeId, NodeId) {
        if self.level(f) == level {
            self.cofactors_of(f)
        } else {
            (f, f)
        }
    }

    /// [`Manager::split`] with `f`'s level already at hand (the apply
    /// recursions compute it for the top-level comparison anyway; passing
    /// it through avoids a second permutation-array lookup per operand).
    #[inline]
    fn split_at(&self, f: NodeId, flevel: u32, top: u32) -> (NodeId, NodeId) {
        if flevel == top {
            self.cofactors_of(f)
        } else {
            (f, f)
        }
    }

    /// Logical negation: with complement edges this is a single bit flip —
    /// no recursion, no cache lookup, no allocation.
    pub fn not(&self, f: NodeId) -> NodeId {
        crate::shard::bump(&self.shards.local().not_ops);
        f.complement()
    }

    /// Logical conjunction (dedicated apply recursion; complement bits are
    /// part of the cache key because they do not fold out of AND).
    pub fn and(&self, f: NodeId, g: NodeId) -> NodeId {
        let shard = self.shards.local();
        match self.mode {
            KernelMode::Serial => self.and_in::<true>(shard, f, g),
            KernelMode::Shared => self.and_in::<false>(shard, f, g),
        }
    }

    fn and_in<const SERIAL: bool>(&self, shard: &StatShard, f: NodeId, g: NodeId) -> NodeId {
        if f == g {
            return f;
        }
        if f.0 ^ g.0 == COMPLEMENT {
            // f ∧ ¬f
            return NodeId::FALSE;
        }
        if f.is_false() || g.is_false() {
            return NodeId::FALSE;
        }
        if f.is_true() {
            return g;
        }
        if g.is_true() {
            return f;
        }
        // Commutative key normalisation: canonical operand order.
        let (a, b) = if f.0 < g.0 { (f, g) } else { (g, f) };
        let key = ((a.0 as u64) << 32) | b.0 as u64;
        let epoch = self.epoch();
        if let Some(result) = self.cache_probe2::<SERIAL>(AND, epoch, key) {
            crate::shard::bump(&shard.caches[AND].hits);
            return result;
        }
        crate::shard::bump(&shard.caches[AND].misses);
        let (la, lb) = (self.level(a), self.level(b));
        let top = la.min(lb);
        let (a0, a1) = self.split_at(a, la, top);
        let (b0, b1) = self.split_at(b, lb, top);
        let low = self.and_in::<SERIAL>(shard, a0, b0);
        let high = self.and_in::<SERIAL>(shard, a1, b1);
        let result = self.mk_level_in::<SERIAL>(shard, top, low, high);
        self.cache_store2::<SERIAL>(shard, AND, epoch, key, result);
        result
    }

    /// Logical disjunction, by De Morgan: `or(f, g) = ¬and(¬f, ¬g)`.  The
    /// complements are O(1) bit flips, so OR shares the AND recursion and
    /// its cache instead of maintaining its own.
    pub fn or(&self, f: NodeId, g: NodeId) -> NodeId {
        self.and(f.complement(), g.complement()).complement()
    }

    #[inline]
    fn or_in<const SERIAL: bool>(&self, shard: &StatShard, f: NodeId, g: NodeId) -> NodeId {
        self.and_in::<SERIAL>(shard, f.complement(), g.complement())
            .complement()
    }

    /// Exclusive or (dedicated apply recursion).  Complement parity folds
    /// out entirely — `¬f ⊕ g = ¬(f ⊕ g)` — so the cache is probed with
    /// regular operands and one entry serves XOR and XNOR of both phases.
    pub fn xor(&self, f: NodeId, g: NodeId) -> NodeId {
        let shard = self.shards.local();
        match self.mode {
            KernelMode::Serial => self.xor_in::<true>(shard, f, g),
            KernelMode::Shared => self.xor_in::<false>(shard, f, g),
        }
    }

    fn xor_in<const SERIAL: bool>(&self, shard: &StatShard, f: NodeId, g: NodeId) -> NodeId {
        let parity = (f.0 ^ g.0) & COMPLEMENT;
        let (a, b) = (f.regular(), g.regular());
        if a == b {
            return if parity != 0 {
                NodeId::TRUE
            } else {
                NodeId::FALSE
            };
        }
        if a.is_terminal() {
            // a is the regular terminal (true): true ⊕ b = ¬b.
            return b.complement().xor_mask(parity);
        }
        if b.is_terminal() {
            return a.complement().xor_mask(parity);
        }
        let (a, b) = if a.0 < b.0 { (a, b) } else { (b, a) };
        let key = ((a.0 as u64) << 32) | b.0 as u64;
        let epoch = self.epoch();
        if let Some(result) = self.cache_probe2::<SERIAL>(XOR, epoch, key) {
            crate::shard::bump(&shard.caches[XOR].hits);
            return result.xor_mask(parity);
        }
        crate::shard::bump(&shard.caches[XOR].misses);
        let (la, lb) = (self.level(a), self.level(b));
        let top = la.min(lb);
        let (a0, a1) = self.split_at(a, la, top);
        let (b0, b1) = self.split_at(b, lb, top);
        let low = self.xor_in::<SERIAL>(shard, a0, b0);
        let high = self.xor_in::<SERIAL>(shard, a1, b1);
        let result = self.mk_level_in::<SERIAL>(shard, top, low, high);
        self.cache_store2::<SERIAL>(shard, XOR, epoch, key, result);
        result.xor_mask(parity)
    }

    /// If-then-else: `ite(f, g, h) = (f ∧ g) ∨ (¬f ∧ h)`.
    ///
    /// Calls whose shape matches a two-operand operation are routed to the
    /// specialised recursions (and their caches) instead; the standard
    /// triple is normalised so the predicate and the then-branch are
    /// regular edges (`ite(¬f, g, h) = ite(f, h, g)` and
    /// `ite(f, ¬g, ¬h) = ¬ite(f, g, h)`).
    pub fn ite(&self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        let shard = self.shards.local();
        match self.mode {
            KernelMode::Serial => self.ite_in::<true>(shard, f, g, h),
            KernelMode::Shared => self.ite_in::<false>(shard, f, g, h),
        }
    }

    fn ite_in<const SERIAL: bool>(
        &self,
        shard: &StatShard,
        f: NodeId,
        g: NodeId,
        h: NodeId,
    ) -> NodeId {
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        // Predicate normalisation: regular f.
        let (f, g, h) = if f.is_complemented() {
            (f.complement(), h, g)
        } else {
            (f, g, h)
        };
        if g.0 ^ h.0 == COMPLEMENT {
            // ite(f, g, ¬g) = ¬(f ⊕ g): the XNOR terminal case folds into
            // the XOR recursion via the complement bit.
            return self.xor_in::<SERIAL>(shard, f, g).complement();
        }
        // Two-operand shapes: reuse the specialised recursions.
        if g.is_true() {
            if h.is_false() {
                return f;
            }
            return self.or_in::<SERIAL>(shard, f, h);
        }
        if g.is_false() {
            if h.is_true() {
                return f.complement();
            }
            return self.and_in::<SERIAL>(shard, f.complement(), h);
        }
        if h.is_false() || f == h {
            return self.and_in::<SERIAL>(shard, f, g);
        }
        if f == g {
            return self.or_in::<SERIAL>(shard, f, h);
        }
        if h.is_true() {
            return self.or_in::<SERIAL>(shard, f.complement(), g);
        }
        if f.0 ^ g.0 == COMPLEMENT {
            // g = ¬f: ite(f, ¬f, h) = ¬f ∧ h.
            return self.and_in::<SERIAL>(shard, f.complement(), h);
        }
        if f.0 ^ h.0 == COMPLEMENT {
            // h = ¬f: ite(f, g, ¬f) = ¬f ∨ g.
            return self.or_in::<SERIAL>(shard, f.complement(), g);
        }
        // Then-branch normalisation: regular g, so ite(f, g, h) and
        // ¬ite(f, ¬g, ¬h) probe the same cache line.
        let out_c = g.cmask();
        let (g, h) = (g.xor_mask(out_c), h.xor_mask(out_c));
        let key_fg = ((f.0 as u64) << 32) | g.0 as u64;
        let key_h = h.0 as u64;
        let epoch = self.epoch();
        if let Some(result) = self.cache_probe3::<SERIAL>(ITE, epoch, key_fg, key_h) {
            crate::shard::bump(&shard.caches[ITE].hits);
            return result.xor_mask(out_c);
        }
        crate::shard::bump(&shard.caches[ITE].misses);
        let (lf, lg, lh) = (self.level(f), self.level(g), self.level(h));
        let top = lf.min(lg).min(lh);
        let (f0, f1) = self.split_at(f, lf, top);
        let (g0, g1) = self.split_at(g, lg, top);
        let (h0, h1) = self.split_at(h, lh, top);
        let low = self.ite_in::<SERIAL>(shard, f0, g0, h0);
        let high = self.ite_in::<SERIAL>(shard, f1, g1, h1);
        let result = self.mk_level_in::<SERIAL>(shard, top, low, high);
        self.cache_store3::<SERIAL>(shard, ITE, epoch, key_fg, key_h, result);
        result.xor_mask(out_c)
    }

    /// Three-operand exclusive or `f ⊕ g ⊕ h` — the full-adder *sum* — as a
    /// single recursion instead of two chained [`Manager::xor`] passes.
    /// Complement parity folds out of all three operands at once, so the
    /// cache is keyed on regular edges only.
    pub fn xor3(&self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        let shard = self.shards.local();
        match self.mode {
            KernelMode::Serial => self.xor3_in::<true>(shard, f, g, h),
            KernelMode::Shared => self.xor3_in::<false>(shard, f, g, h),
        }
    }

    fn xor3_in<const SERIAL: bool>(
        &self,
        shard: &StatShard,
        f: NodeId,
        g: NodeId,
        h: NodeId,
    ) -> NodeId {
        let parity = (f.0 ^ g.0 ^ h.0) & COMPLEMENT;
        // Fully commutative: sort the regular edges into canonical order.
        let (mut a, mut b, mut c) = (f.regular(), g.regular(), h.regular());
        if a.0 > b.0 {
            std::mem::swap(&mut a, &mut b);
        }
        if b.0 > c.0 {
            std::mem::swap(&mut b, &mut c);
        }
        if a.0 > b.0 {
            std::mem::swap(&mut a, &mut b);
        }
        // Duplicate operands cancel (their complement bits already folded
        // into `parity`).
        if a == b {
            return c.xor_mask(parity);
        }
        if b == c {
            return a.xor_mask(parity);
        }
        // The only regular terminal is `true`, and it sorts first:
        // true ⊕ b ⊕ c = ¬(b ⊕ c).
        if a.is_terminal() {
            return self
                .xor_in::<SERIAL>(shard, b, c)
                .complement()
                .xor_mask(parity);
        }
        let key_ab = ((a.0 as u64) << 32) | b.0 as u64;
        let key_c = c.0 as u64;
        let epoch = self.epoch();
        if let Some(result) = self.cache_probe3::<SERIAL>(XOR3, epoch, key_ab, key_c) {
            crate::shard::bump(&shard.caches[XOR3].hits);
            return result.xor_mask(parity);
        }
        crate::shard::bump(&shard.caches[XOR3].misses);
        let (la, lb, lc) = (self.level(a), self.level(b), self.level(c));
        let top = la.min(lb).min(lc);
        let (a0, a1) = self.split_at(a, la, top);
        let (b0, b1) = self.split_at(b, lb, top);
        let (c0, c1) = self.split_at(c, lc, top);
        let low = self.xor3_in::<SERIAL>(shard, a0, b0, c0);
        let high = self.xor3_in::<SERIAL>(shard, a1, b1, c1);
        let result = self.mk_level_in::<SERIAL>(shard, top, low, high);
        self.cache_store3::<SERIAL>(shard, XOR3, epoch, key_ab, key_c, result);
        result.xor_mask(parity)
    }

    /// Three-operand majority `f·g ∨ f·h ∨ g·h` — the full-adder *carry*
    /// `a·b ∨ (a ∨ b)·c` — as a single recursion instead of four chained
    /// two-operand passes.  Majority is self-dual
    /// (`maj(¬f, ¬g, ¬h) = ¬maj(f, g, h)`), which normalises every call to
    /// at most one complemented operand before the cache is probed.
    pub fn maj(&self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        let shard = self.shards.local();
        match self.mode {
            KernelMode::Serial => self.maj_in::<true>(shard, f, g, h),
            KernelMode::Shared => self.maj_in::<false>(shard, f, g, h),
        }
    }

    fn maj_in<const SERIAL: bool>(
        &self,
        shard: &StatShard,
        f: NodeId,
        g: NodeId,
        h: NodeId,
    ) -> NodeId {
        // A duplicated operand wins the vote; an operand voting against its
        // own complement leaves the third the deciding vote.
        if f == g || f == h {
            return f;
        }
        if g == h {
            return g;
        }
        if f.0 ^ g.0 == COMPLEMENT {
            return h;
        }
        if f.0 ^ h.0 == COMPLEMENT {
            return g;
        }
        if g.0 ^ h.0 == COMPLEMENT {
            return f;
        }
        // A constant vote reduces to OR (true) or AND (false).
        if f.is_terminal() {
            return if f.is_true() {
                self.or_in::<SERIAL>(shard, g, h)
            } else {
                self.and_in::<SERIAL>(shard, g, h)
            };
        }
        if g.is_terminal() {
            return if g.is_true() {
                self.or_in::<SERIAL>(shard, f, h)
            } else {
                self.and_in::<SERIAL>(shard, f, h)
            };
        }
        if h.is_terminal() {
            return if h.is_true() {
                self.or_in::<SERIAL>(shard, f, g)
            } else {
                self.and_in::<SERIAL>(shard, f, g)
            };
        }
        // Self-duality: flip all three when two or more are complemented,
        // complementing the result.
        let complemented =
            f.is_complemented() as u32 + g.is_complemented() as u32 + h.is_complemented() as u32;
        let out_c = if complemented >= 2 { COMPLEMENT } else { 0 };
        // Fully commutative: sort the (normalised) operands canonically.
        let (mut a, mut b, mut c) = (f.xor_mask(out_c), g.xor_mask(out_c), h.xor_mask(out_c));
        if a.0 > b.0 {
            std::mem::swap(&mut a, &mut b);
        }
        if b.0 > c.0 {
            std::mem::swap(&mut b, &mut c);
        }
        if a.0 > b.0 {
            std::mem::swap(&mut a, &mut b);
        }
        let key_ab = ((a.0 as u64) << 32) | b.0 as u64;
        let key_c = c.0 as u64;
        let epoch = self.epoch();
        if let Some(result) = self.cache_probe3::<SERIAL>(MAJ, epoch, key_ab, key_c) {
            crate::shard::bump(&shard.caches[MAJ].hits);
            return result.xor_mask(out_c);
        }
        crate::shard::bump(&shard.caches[MAJ].misses);
        let (la, lb, lc) = (self.level(a), self.level(b), self.level(c));
        let top = la.min(lb).min(lc);
        let (a0, a1) = self.split_at(a, la, top);
        let (b0, b1) = self.split_at(b, lb, top);
        let (c0, c1) = self.split_at(c, lc, top);
        let low = self.maj_in::<SERIAL>(shard, a0, b0, c0);
        let high = self.maj_in::<SERIAL>(shard, a1, b1, c1);
        let result = self.mk_level_in::<SERIAL>(shard, top, low, high);
        self.cache_store3::<SERIAL>(shard, MAJ, epoch, key_ab, key_c, result);
        result.xor_mask(out_c)
    }

    /// The composition `f(…, ¬x_var, …)`: swaps the two cofactors along
    /// `var` in one traversal (the X-gate permutation), instead of the
    /// three-pass `ite(x, f|₀, f|₁)` construction.  The swap commutes with
    /// complementation, so the cache is keyed on the regular edge.
    pub fn flip_var(&self, f: NodeId, var: usize) -> NodeId {
        let vlevel = self.var_to_level[var];
        let shard = self.shards.local();
        match self.mode {
            KernelMode::Serial => self.flip_var_rec::<true>(shard, f, var as u32, vlevel),
            KernelMode::Shared => self.flip_var_rec::<false>(shard, f, var as u32, vlevel),
        }
    }

    fn flip_var_rec<const SERIAL: bool>(
        &self,
        shard: &StatShard,
        f: NodeId,
        var: u32,
        vlevel: u32,
    ) -> NodeId {
        let out_c = f.cmask();
        let fr = f.xor_mask(out_c);
        if fr.is_terminal() || self.level(fr) > vlevel {
            return f;
        }
        if self.var_of(fr) == var {
            let (low, high) = (self.raw_low(fr), self.raw_high(fr));
            return self.mk_in::<SERIAL>(shard, var, high, low).xor_mask(out_c);
        }
        let key = ((fr.0 as u64) << 32) | var as u64;
        let epoch = self.epoch();
        if let Some(result) = self.cache_probe2::<SERIAL>(FLIP, epoch, key) {
            crate::shard::bump(&shard.caches[FLIP].hits);
            return result.xor_mask(out_c);
        }
        crate::shard::bump(&shard.caches[FLIP].misses);
        let top_var = self.var_of(fr);
        let (f0, f1) = (self.raw_low(fr), self.raw_high(fr));
        let low = self.flip_var_rec::<SERIAL>(shard, f0, var, vlevel);
        let high = self.flip_var_rec::<SERIAL>(shard, f1, var, vlevel);
        let result = self.mk_in::<SERIAL>(shard, top_var, low, high);
        self.cache_store2::<SERIAL>(shard, FLIP, epoch, key, result);
        result.xor_mask(out_c)
    }

    /// `ite(x_var, g, h)` without materialising the literal: the row
    /// multiplexer used by controlled and phase gates, in one recursion with
    /// a two-word cache key.  Normalised so the then-input is regular
    /// (`mux(v, ¬g, ¬h) = ¬mux(v, g, h)`).
    pub fn mux_var(&self, var: usize, g: NodeId, h: NodeId) -> NodeId {
        let vlevel = self.var_to_level[var];
        let shard = self.shards.local();
        match self.mode {
            KernelMode::Serial => self.mux_var_rec::<true>(shard, var as u32, vlevel, g, h),
            KernelMode::Shared => self.mux_var_rec::<false>(shard, var as u32, vlevel, g, h),
        }
    }

    fn mux_var_rec<const SERIAL: bool>(
        &self,
        shard: &StatShard,
        var: u32,
        vlevel: u32,
        g: NodeId,
        h: NodeId,
    ) -> NodeId {
        if g == h {
            return g;
        }
        let out_c = g.cmask();
        let (g, h) = (g.xor_mask(out_c), h.xor_mask(out_c));
        let top = self.level(g).min(self.level(h));
        if top > vlevel {
            // Neither operand depends on variables at or above `var`'s level.
            return self.mk_in::<SERIAL>(shard, var, h, g).xor_mask(out_c);
        }
        let key_gh = ((g.0 as u64) << 32) | h.0 as u64;
        let key_var = var as u64;
        let epoch = self.epoch();
        if let Some(result) = self.cache_probe3::<SERIAL>(MUX, epoch, key_gh, key_var) {
            crate::shard::bump(&shard.caches[MUX].hits);
            return result.xor_mask(out_c);
        }
        crate::shard::bump(&shard.caches[MUX].misses);
        let result = if top == vlevel {
            // At the multiplexer level: low output comes from h, high from g.
            let low = if self.level(h) == vlevel {
                self.cofactors_of(h).0
            } else {
                h
            };
            let high = if self.level(g) == vlevel {
                self.cofactors_of(g).1
            } else {
                g
            };
            self.mk_in::<SERIAL>(shard, var, low, high)
        } else {
            let (g0, g1) = self.split(g, top);
            let (h0, h1) = self.split(h, top);
            let low = self.mux_var_rec::<SERIAL>(shard, var, vlevel, g0, h0);
            let high = self.mux_var_rec::<SERIAL>(shard, var, vlevel, g1, h1);
            self.mk_level_in::<SERIAL>(shard, top, low, high)
        };
        self.cache_store3::<SERIAL>(shard, MUX, epoch, key_gh, key_var, result);
        result.xor_mask(out_c)
    }

    /// Conjunction of many functions.
    pub fn and_many(&self, fs: &[NodeId]) -> NodeId {
        let mut acc = NodeId::TRUE;
        for &f in fs {
            acc = self.and(acc, f);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Disjunction of many functions.
    pub fn or_many(&self, fs: &[NodeId]) -> NodeId {
        let mut acc = NodeId::FALSE;
        for &f in fs {
            acc = self.or(acc, f);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    /// The cube (conjunction of literals) described by `(variable, phase)`
    /// pairs; `phase == true` means the positive literal.
    pub fn cube(&self, literals: &[(usize, bool)]) -> NodeId {
        // Build bottom-up in *level* order, so the construction is valid
        // under any variable order.
        let mut sorted: Vec<_> = literals.to_vec();
        sorted.sort_by_key(|&(v, _)| std::cmp::Reverse(self.var_to_level[v]));
        let mut acc = NodeId::TRUE;
        for (v, phase) in sorted {
            acc = if phase {
                self.mk(v as u32, NodeId::FALSE, acc)
            } else {
                self.mk(v as u32, acc, NodeId::FALSE)
            };
        }
        acc
    }

    /// The cofactor `f|_{var=value}`.  Restriction commutes with
    /// complementation, so the cache is keyed on the regular edge.
    pub fn cofactor(&self, f: NodeId, var: usize, value: bool) -> NodeId {
        let vlevel = self.var_to_level[var];
        let shard = self.shards.local();
        match self.mode {
            KernelMode::Serial => self.cofactor_rec::<true>(shard, f, var as u32, vlevel, value),
            KernelMode::Shared => self.cofactor_rec::<false>(shard, f, var as u32, vlevel, value),
        }
    }

    fn cofactor_rec<const SERIAL: bool>(
        &self,
        shard: &StatShard,
        f: NodeId,
        var: u32,
        vlevel: u32,
        value: bool,
    ) -> NodeId {
        let out_c = f.cmask();
        let fr = f.xor_mask(out_c);
        if fr.is_terminal() || self.level(fr) > vlevel {
            return f;
        }
        if self.var_of(fr) == var {
            let (low, high) = self.cofactors_of(f);
            return if value { high } else { low };
        }
        let var_value = var | (value as u32) << 31;
        let key = ((fr.0 as u64) << 32) | var_value as u64;
        let epoch = self.epoch();
        if let Some(result) = self.cache_probe2::<SERIAL>(COFACTOR, epoch, key) {
            crate::shard::bump(&shard.caches[COFACTOR].hits);
            return result.xor_mask(out_c);
        }
        crate::shard::bump(&shard.caches[COFACTOR].misses);
        let top_var = self.var_of(fr);
        let (f0, f1) = (self.raw_low(fr), self.raw_high(fr));
        let low = self.cofactor_rec::<SERIAL>(shard, f0, var, vlevel, value);
        let high = self.cofactor_rec::<SERIAL>(shard, f1, var, vlevel, value);
        let result = self.mk_in::<SERIAL>(shard, top_var, low, high);
        self.cache_store2::<SERIAL>(shard, COFACTOR, epoch, key, result);
        result.xor_mask(out_c)
    }

    /// Cofactor with respect to a cube given as `(variable, phase)` pairs.
    pub fn cofactor_cube(&self, f: NodeId, literals: &[(usize, bool)]) -> NodeId {
        let mut acc = f;
        for &(v, phase) in literals {
            acc = self.cofactor(acc, v, phase);
        }
        acc
    }

    /// Existential quantification of a single variable.
    pub fn exists(&self, f: NodeId, var: usize) -> NodeId {
        let f0 = self.cofactor(f, var, false);
        let f1 = self.cofactor(f, var, true);
        self.or(f0, f1)
    }

    // ----------------------------------------------------------------- //
    // Queries
    // ----------------------------------------------------------------- //

    /// Evaluates `f` under a complete assignment (index = **variable**, so
    /// the call is oblivious to the current variable order), folding the
    /// complement bits of the traversed edges into the result.
    pub fn eval(&self, f: NodeId, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            let node = self.arena.get(cur.index() as u32);
            let next = if assignment[node.var as usize] {
                node.high
            } else {
                node.low
            };
            cur = next.xor_mask(cur.cmask());
        }
        cur.is_true()
    }

    /// Number of satisfying assignments of `f` over the variables
    /// `0..nvars`.  `f` must not depend on variables `≥ nvars`.  The count
    /// is over the variable *set*, so it is independent of the current
    /// order (the counted variables need not occupy contiguous levels).
    ///
    /// A one-shot [`ModelCounter`], so there is one counting path:
    ///
    /// * **Fixed width.**  The count is exact at every width: the traversal
    ///   runs in `u128` arithmetic while at most 127 variables are counted
    ///   (the largest count, `2^127`, still fits) and in [`UBig`] from 128
    ///   on.
    /// * **Memo.**  Complemented edges count by subtraction,
    ///   `|¬f| = 2^(remaining vars) − |f|`, and each regular node is
    ///   counted once, memoised for the length of this call.  The memo
    ///   borrows `&self`, so no garbage collection or reordering (both
    ///   `&mut self`) can invalidate an entry while it exists.
    ///
    /// To count many functions of one manager, keep one [`ModelCounter`]
    /// instead: its memo is shared across the counts.
    pub fn sat_count(&self, f: NodeId, nvars: usize) -> UBig {
        ModelCounter::new(self, nvars).count(f)
    }

    /// The number of BDD nodes reachable from `f` (the terminal excluded).
    /// A function and its complement share all their nodes.
    pub fn node_count(&self, f: NodeId) -> usize {
        self.node_count_many(std::slice::from_ref(&f))
    }

    /// The number of distinct BDD nodes reachable from any of the `roots`
    /// (the terminal excluded); shared nodes — including nodes shared
    /// between a function and a complemented occurrence — are counted once.
    pub fn node_count_many(&self, roots: &[NodeId]) -> usize {
        let mut seen: std::collections::HashSet<NodeId, crate::hash::FxBuildHasher> =
            Default::default();
        let mut stack: Vec<NodeId> = roots.iter().map(|f| f.regular()).collect();
        while let Some(f) = stack.pop() {
            if f.is_terminal() || !seen.insert(f) {
                continue;
            }
            stack.push(self.raw_low(f));
            stack.push(self.raw_high(f).regular());
        }
        seen.len()
    }

    /// Counts the complement edges among the nodes reachable from `roots`:
    /// returns `(complemented_high_edges, reachable_nodes)`.  Low edges are
    /// never complemented by canonical form, so the first component counts
    /// every stored complement bit in the subgraph — a direct measure of
    /// the sharing the complement-edge representation buys.
    pub fn complement_edge_count(&self, roots: &[NodeId]) -> (usize, usize) {
        let mut seen: std::collections::HashSet<NodeId, crate::hash::FxBuildHasher> =
            Default::default();
        let mut stack: Vec<NodeId> = roots.iter().map(|f| f.regular()).collect();
        let mut complemented = 0usize;
        while let Some(f) = stack.pop() {
            if f.is_terminal() || !seen.insert(f) {
                continue;
            }
            let high = self.raw_high(f);
            complemented += high.is_complemented() as usize;
            stack.push(self.raw_low(f));
            stack.push(high.regular());
        }
        (complemented, seen.len())
    }

    /// The set of variables `f` depends on, as *variable indices* in
    /// increasing order (independent of the current variable order).
    pub fn support(&self, f: NodeId) -> Vec<usize> {
        let mut seen: std::collections::HashSet<NodeId, crate::hash::FxBuildHasher> =
            Default::default();
        let mut vars: std::collections::BTreeSet<usize> = Default::default();
        let mut stack = vec![f.regular()];
        while let Some(g) = stack.pop() {
            if g.is_terminal() || !seen.insert(g) {
                continue;
            }
            vars.insert(self.var_of(g) as usize);
            stack.push(self.raw_low(g));
            stack.push(self.raw_high(g).regular());
        }
        vars.into_iter().collect()
    }

    /// Returns one satisfying assignment (as `(variable, value)` pairs over
    /// the support of `f`, in *variable* space), or `None` if `f` is
    /// unsatisfiable.
    pub fn pick_one(&self, f: NodeId) -> Option<Vec<(usize, bool)>> {
        if f.is_false() {
            return None;
        }
        let mut cube = Vec::new();
        let mut cur = f;
        while !cur.is_terminal() {
            let v = self.var_of(cur) as usize;
            let (low, high) = self.cofactors_of(cur);
            if low.is_false() {
                cube.push((v, true));
                cur = high;
            } else {
                cube.push((v, false));
                cur = low;
            }
        }
        Some(cube)
    }

    // ----------------------------------------------------------------- //
    // Garbage collection
    // ----------------------------------------------------------------- //

    /// Returns `true` when enough garbage may have accumulated that calling
    /// [`Manager::collect_garbage`] is worthwhile.
    pub fn should_collect(&self) -> bool {
        self.allocated_nodes() > self.gc_threshold
    }

    /// Overrides the automatic GC threshold (number of allocated nodes).
    pub fn set_gc_threshold(&mut self, threshold: usize) {
        self.gc_threshold = threshold;
    }

    /// GC-time cache-cap auto-tuning: when the eviction rate over the GC
    /// interval stays above 1/4 of the stores for two consecutive
    /// collections, raise the growth cap one power of two (up to 2²⁰).
    /// Intervals with fewer than 4096 stores are ignored as noise.
    fn tune_cache_cap(&mut self, interval_stores: u64, interval_evictions: u64) {
        if interval_stores >= 4096 && interval_evictions * 4 >= interval_stores {
            self.high_eviction_streak += 1;
        } else {
            self.high_eviction_streak = 0;
            return;
        }
        if self.high_eviction_streak >= 2 && self.cache_max_log2 < CACHE_HARD_MAX_LOG2 {
            self.cache_max_log2 += 1;
            self.serial.cache_cap_log2 = self.cache_max_log2;
            self.serial.cache_cap_raises += 1;
            let cap = self.cache_max_log2;
            for cache in self.caches.iter_mut() {
                cache.raise_cap(cap);
            }
            self.high_eviction_streak = 0;
        }
    }

    /// Applies deferred operation-cache growth: any cache whose miss budget
    /// ran out since the last exclusive phase doubles now (up to its cap).
    /// The shared phase never reallocates a cache; the simulator calls this
    /// at gate boundaries (it is also folded into GC and reordering).
    pub fn maybe_grow_caches(&mut self) {
        for cache in self.caches.iter_mut() {
            // A manager at (or past) its byte budget must not double its
            // caches into it: growth resumes once a GC recovers headroom.
            while cache.wants_growth() && !self.arena.mem().over_budget() {
                let before = cache.bytes();
                cache.grow();
                self.arena.mem().add(cache.bytes() - before);
            }
        }
    }

    /// Mark-and-sweep garbage collection.  Every node reachable from
    /// `roots` *or from a registered root* (see [`Manager::register_root`])
    /// survives with its `NodeId` unchanged (complement bits are ignored
    /// for marking: a node is live if *either* phase of it is reachable);
    /// all other nodes are freed, the unique subtables and free-list are
    /// rebuilt from the mark bitmap, and the operation caches are
    /// invalidated in O(1) by bumping the cache epoch.  Returns the number
    /// of freed nodes.
    pub fn collect_garbage(&mut self, roots: &[NodeId]) -> usize {
        self.note_peak();
        let mut marked = vec![false; self.arena.id_bound()];
        marked[0] = true;
        let mut stack: Vec<usize> = roots
            .iter()
            .chain(self.roots.iter())
            .map(|f| f.index())
            .collect();
        while let Some(index) = stack.pop() {
            if marked[index] {
                continue;
            }
            marked[index] = true;
            let node = self.arena.get(index as u32);
            stack.push(node.low.index());
            stack.push(node.high.index());
        }
        let live_before = self.allocated_nodes();
        self.rebuild_table(&marked);
        let freed = live_before - self.allocated_nodes();
        // Cache-cap auto-tuning from the eviction rate of this GC interval.
        let totals = self.stats().total_cache();
        let interval_stores = totals.misses - self.misses_at_last_gc;
        let interval_evictions = totals.evictions - self.evictions_at_last_gc;
        self.misses_at_last_gc = totals.misses;
        self.evictions_at_last_gc = totals.evictions;
        self.tune_cache_cap(interval_stores, interval_evictions);
        self.maybe_grow_caches();
        self.invalidate_caches();
        self.serial.gc_runs += 1;
        // Grow the threshold if little garbage was reclaimed, so we do not
        // thrash on workloads whose live set keeps growing.
        if freed * 4 < self.allocated_nodes() {
            self.gc_threshold = (self.allocated_nodes() * 2).max(self.gc_threshold);
        }
        freed
    }

    /// Garbage collection with the registered roots as the only root set.
    pub fn collect_garbage_registered(&mut self) -> usize {
        self.collect_garbage(&[])
    }

    /// O(1) invalidation of every operation cache: bumps the epoch stamp
    /// (stale entries are recognised by their epoch), hard-resetting on the
    /// extremely rare wrap so no stale entry can alias the restarted
    /// counter.  Called at GC time and after reordering (level swaps free
    /// dead nodes whose ids may be recycled, which would otherwise leave
    /// the caches pointing at different functions).
    pub(crate) fn invalidate_caches(&mut self) {
        let epoch = self.cache_epoch.get_mut();
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            for cache in self.caches.iter_mut() {
                cache.reset();
            }
            *epoch = 1;
        }
    }

    // ----------------------------------------------------------------- //
    // Reordering configuration (the algorithms live in `reorder.rs`)
    // ----------------------------------------------------------------- //

    /// Enables or disables the automatic reordering trigger polled by
    /// [`Manager::maybe_reorder`].
    pub fn set_auto_reorder(&mut self, enabled: bool) {
        self.auto_reorder = enabled;
    }

    /// Whether automatic reordering is armed.
    pub fn auto_reorder_enabled(&self) -> bool {
        self.auto_reorder
    }

    /// Sets the allocated-node count beyond which [`Manager::maybe_reorder`]
    /// sifts.  The threshold re-arms itself at twice the post-reorder size,
    /// never dropping below the value configured here.
    pub fn set_reorder_threshold(&mut self, threshold: usize) {
        self.reorder_threshold = threshold;
        self.reorder_threshold_floor = threshold;
    }

    /// Restricts sifting to the top `levels` levels of the order: variables
    /// below the window never move, and windowed variables never sink out
    /// of it.  The simulator uses this to pin measurement-encoding
    /// variables underneath the qubit block, the ordering requirement of
    /// the paper's monolithic measurement traversal.
    pub fn set_reorder_window(&mut self, levels: usize) {
        self.reorder_window = levels;
    }

    /// Enables converging sifting: [`Manager::reorder`] repeats whole
    /// passes until a pass improves the size by less than 1% (or a small
    /// pass cap is hit).
    pub fn set_converging_sifting(&mut self, converge: bool) {
        self.converging_sifting = converge;
    }

    /// Runs [`Manager::reorder`] iff automatic reordering is enabled and
    /// the allocated-node count exceeds the trigger threshold; re-arms the
    /// threshold at twice the post-reorder live size.  Also applies any
    /// deferred cache growth — this is the designated exclusive-phase
    /// housekeeping hook.  Call at safe points only (no apply recursion in
    /// flight; `&mut self` proves it) — the simulator calls it between
    /// gates.  Returns `true` if a reordering ran.
    pub fn maybe_reorder(&mut self) -> bool {
        self.maybe_grow_caches();
        if !self.auto_reorder || self.allocated_nodes() <= self.reorder_threshold {
            return false;
        }
        self.reorder();
        self.reorder_threshold = (2 * self.allocated_nodes()).max(self.reorder_threshold_floor);
        true
    }

    // ----------------------------------------------------------------- //
    // Exclusive-phase accessors for the reordering module
    // ----------------------------------------------------------------- //

    /// The total number of live unique-table entries.
    #[inline]
    pub(crate) fn live_table_len(&self) -> usize {
        self.table_len.load(Ordering::Relaxed)
    }

    pub(crate) fn table_len_add(&mut self, delta: isize) {
        let len = self.table_len.get_mut();
        *len = (*len as isize + delta) as usize;
    }

    /// Pushes a freed node id (exclusive phase: eager reclamation during
    /// level swaps), homing it under its chunk's owner variable so reuse
    /// never mixes a chunk.
    pub(crate) fn free_push(&mut self, id: u32) {
        let owner = self.arena.chunk_owner(id);
        self.free.push(owner, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_and_literals() {
        let mgr = Manager::new(3);
        assert!(mgr.constant(true).is_true());
        assert!(mgr.constant(false).is_false());
        let x = mgr.var(1);
        assert!(mgr.eval(x, &[false, true, false]));
        assert!(!mgr.eval(x, &[true, false, true]));
        let nx = mgr.nvar(1);
        let not_x = mgr.not(x);
        assert_eq!(nx, not_x);
    }

    #[test]
    fn complement_bit_semantics() {
        assert!(NodeId::TRUE.is_terminal());
        assert!(NodeId::FALSE.is_terminal());
        assert_eq!(NodeId::TRUE.complement(), NodeId::FALSE);
        assert_eq!(NodeId::FALSE.regular(), NodeId::TRUE);
        assert_eq!(NodeId::TRUE.index(), NodeId::FALSE.index());
        assert!(NodeId::FALSE.is_complemented());
        assert!(!NodeId::TRUE.is_complemented());
        let mgr = Manager::new(2);
        let x = mgr.var(0);
        assert_eq!(x.complement().complement(), x);
        assert_eq!(x.index(), x.complement().index(), "one shared node");
    }

    #[test]
    fn not_is_o1_and_allocation_free() {
        let mgr = Manager::new(4);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let f = mgr.and(x, y);
        let created_before = mgr.stats().created_nodes;
        let nf = mgr.not(f);
        let back = mgr.not(nf);
        // No nodes were created, no cache was consulted: pure bit flips.
        assert_eq!(mgr.stats().created_nodes, created_before);
        assert_eq!(back, f, "double negation is the identical edge");
        assert_ne!(nf, f);
        assert_eq!(mgr.stats().not_ops, 2);
        // The negation evaluates correctly everywhere.
        for bits in 0..4u32 {
            let a = [bits & 1 == 1, bits & 2 == 2, false, false];
            assert_eq!(mgr.eval(nf, &a), !mgr.eval(f, &a));
        }
    }

    #[test]
    fn low_edges_are_never_complemented() {
        // Build a varied population of nodes and check the canonical-form
        // invariant on every live unique-table entry.
        let mgr = Manager::new(6);
        let mut pool = Vec::new();
        for i in 0..6 {
            pool.push(mgr.var(i));
            pool.push(mgr.nvar(i));
        }
        for i in 0..pool.len() {
            for j in (i + 1)..pool.len() {
                let (f, g) = (pool[i], pool[j]);
                pool.push(mgr.and(f, g));
                pool.push(mgr.xor(f, g));
                if pool.len() > 400 {
                    break;
                }
            }
            if pool.len() > 400 {
                break;
            }
        }
        let mut live = 0usize;
        for subtable in &mgr.subtables {
            for id in subtable.ids() {
                live += 1;
                let node = mgr.node_raw(id);
                assert!(
                    !node.low.is_complemented(),
                    "canonical form violated: stored low edge is complemented"
                );
            }
        }
        assert!(live > 20, "the population must have created real nodes");
    }

    #[test]
    fn hash_consing_gives_canonical_forms() {
        let mgr = Manager::new(2);
        let x0 = mgr.var(0);
        let x1 = mgr.var(1);
        let a = mgr.and(x0, x1);
        let b = mgr.and(x1, x0);
        assert_eq!(a, b, "AND must be canonical irrespective of argument order");
        let n1 = mgr.not(a);
        let n2 = mgr.not(b);
        assert_eq!(n1, n2);
        let back = mgr.not(n1);
        assert_eq!(back, a, "double negation restores the identical edge");
    }

    #[test]
    fn de_morgan() {
        let mgr = Manager::new(4);
        let x = mgr.var(2);
        let y = mgr.var(3);
        let lhs = {
            let a = mgr.and(x, y);
            mgr.not(a)
        };
        let rhs = {
            let nx = mgr.not(x);
            let ny = mgr.not(y);
            mgr.or(nx, ny)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn or_shares_the_and_cache() {
        let mgr = Manager::new(4);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let _ = mgr.or(x, y);
        let misses_after_or = mgr.stats().and_cache.misses;
        assert!(misses_after_or > 0, "or lowers to the and recursion");
        // The De Morgan image of the same call hits the identical entry.
        let nx = mgr.not(x);
        let ny = mgr.not(y);
        let _ = mgr.and(nx, ny);
        assert_eq!(mgr.stats().and_cache.misses, misses_after_or);
        assert!(mgr.stats().and_cache.hits > 0);
    }

    #[test]
    fn xor_complement_parity_folds_out() {
        let mgr = Manager::new(4);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let f = mgr.xor(x, y);
        let nx = mgr.not(x);
        let g = mgr.xor(nx, y);
        assert_eq!(g, f.complement(), "¬x ⊕ y = ¬(x ⊕ y)");
        let ny = mgr.not(y);
        let h = mgr.xor(nx, ny);
        assert_eq!(h, f, "¬x ⊕ ¬y = x ⊕ y");
        // All four phases probe one cache entry: only the first call missed.
        assert_eq!(mgr.stats().xor_cache.misses, 1);
        assert_eq!(mgr.stats().xor_cache.hits, 2);
    }

    #[test]
    fn three_operand_complement_identities() {
        let mgr = Manager::new(6);
        let f = {
            let a = mgr.var(0);
            let b = mgr.var(3);
            mgr.and(a, b)
        };
        let g = {
            let a = mgr.var(1);
            let b = mgr.var(4);
            mgr.xor(a, b)
        };
        let h = {
            let a = mgr.var(2);
            let b = mgr.var(5);
            mgr.or(a, b)
        };
        let (nf, ng, nh) = (f.complement(), g.complement(), h.complement());
        let s = mgr.xor3(f, g, h);
        let s_flipped = mgr.xor3(nf, g, h);
        assert_eq!(s_flipped, s.complement(), "xor3 parity");
        let c = mgr.maj(f, g, h);
        let c_dual = mgr.maj(nf, ng, nh);
        assert_eq!(c_dual, c.complement(), "majority is self-dual");
        // maj with a complement pair reduces to the deciding vote.
        assert_eq!(mgr.maj(f, nf, h), h);
    }

    #[test]
    fn xor_and_ite_consistency() {
        let mgr = Manager::new(2);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let x_xor_y = mgr.xor(x, y);
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(mgr.eval(x_xor_y, &[a, b]), a ^ b);
            }
        }
        // The XNOR shape routes through the XOR cache via the complement bit.
        let ny = mgr.not(y);
        let xnor = mgr.ite(x, y, ny);
        assert_eq!(xnor, x_xor_y.complement());
    }

    #[test]
    fn cube_and_cofactor() {
        let mgr = Manager::new(4);
        let cube = mgr.cube(&[(0, true), (2, false), (3, true)]);
        assert!(mgr.eval(cube, &[true, false, false, true]));
        assert!(mgr.eval(cube, &[true, true, false, true]));
        assert!(!mgr.eval(cube, &[true, true, true, true]));
        let co = mgr.cofactor(cube, 0, true);
        assert!(mgr.eval(co, &[false, false, false, true]));
        let co_false = mgr.cofactor(cube, 0, false);
        assert!(co_false.is_false());
        // Cofactor commutes with complement.
        let ncube = mgr.not(cube);
        let co_n = mgr.cofactor(ncube, 0, true);
        assert_eq!(co_n, co.complement());
    }

    #[test]
    fn sat_count_exact() {
        let mgr = Manager::new(10);
        let x = mgr.var(0);
        // A single positive literal over 10 variables has 2^9 models.
        assert_eq!(mgr.sat_count(x, 10), UBig::pow2(9));
        // Tautology and contradiction.
        assert_eq!(mgr.sat_count(NodeId::TRUE, 10), UBig::pow2(10));
        assert_eq!(mgr.sat_count(NodeId::FALSE, 10), UBig::zero());
        // x0 XOR x9 has exactly half the assignments.
        let y = mgr.var(9);
        let f = mgr.xor(x, y);
        assert_eq!(mgr.sat_count(f, 10), UBig::pow2(9));
        // Complemented edges count by subtraction.
        let nf = mgr.not(f);
        assert_eq!(mgr.sat_count(nf, 10), UBig::pow2(9));
        let g = mgr.and(x, y);
        let ng = mgr.not(g);
        assert_eq!(mgr.sat_count(g, 10), UBig::pow2(8));
        assert_eq!(
            mgr.sat_count(ng, 10),
            UBig::pow2(10).sub(&UBig::pow2(8)),
            "|¬f| = 2^n − |f|"
        );
    }

    #[test]
    fn sat_count_huge_variable_count() {
        // Exact counting far beyond what f64 can hold: a single literal over
        // 4000 variables has 2^3999 models.
        let mgr = Manager::new(4000);
        let x = mgr.var(17);
        assert_eq!(mgr.sat_count(x, 4000), UBig::pow2(3999));
    }

    #[test]
    fn support_and_node_count() {
        let mgr = Manager::new(5);
        let x = mgr.var(1);
        let y = mgr.var(3);
        let f = mgr.and(x, y);
        assert_eq!(mgr.support(f), vec![1, 3]);
        assert_eq!(mgr.node_count(f), 2);
        assert_eq!(mgr.node_count_many(&[f, y]), 2, "subgraphs are shared");
        assert_eq!(mgr.node_count_many(&[f, x]), 3, "x is a distinct root node");
        // f and ¬f share every node.
        let nf = mgr.not(f);
        assert_eq!(mgr.node_count_many(&[f, nf]), mgr.node_count(f));
        let (complemented, nodes) = mgr.complement_edge_count(&[f]);
        assert_eq!(nodes, mgr.node_count(f));
        assert!(complemented <= nodes, "only high edges can be complemented");
    }

    #[test]
    fn pick_one_returns_a_model() {
        let mgr = Manager::new(3);
        let x = mgr.var(0);
        let nz = mgr.nvar(2);
        let f = mgr.and(x, nz);
        let cube = mgr.pick_one(f).expect("satisfiable");
        let mut assignment = [false; 3];
        for (v, val) in cube {
            assignment[v] = val;
        }
        assert!(mgr.eval(f, &assignment));
        assert_eq!(mgr.pick_one(NodeId::FALSE), None);
        // The complement of a satisfiable-but-not-tautological function is
        // satisfiable too, through the same shared nodes.
        let nf = mgr.not(f);
        let ncube = mgr.pick_one(nf).expect("¬f satisfiable");
        let mut nassignment = [false; 3];
        for (v, val) in ncube {
            nassignment[v] = val;
        }
        assert!(!mgr.eval(f, &nassignment));
    }

    #[test]
    fn garbage_collection_keeps_roots_valid() {
        let mut mgr = Manager::new(8);
        let mut keep = Vec::new();
        for i in 0..4 {
            let x = mgr.var(i);
            let y = mgr.var(i + 4);
            keep.push(mgr.xor(x, y));
        }
        // Create plenty of garbage.
        for i in 0..8 {
            for j in 0..8 {
                let x = mgr.var(i);
                let y = mgr.var(j);
                let _ = mgr.and(x, y);
            }
        }
        let before = mgr.allocated_nodes();
        let freed = mgr.collect_garbage(&keep.clone());
        assert!(freed > 0);
        assert!(mgr.allocated_nodes() < before);
        // The kept functions still evaluate correctly after GC.
        for (i, &f) in keep.iter().enumerate() {
            let mut assignment = [false; 8];
            assignment[i] = true;
            assert!(mgr.eval(f, &assignment));
            assignment[i + 4] = true;
            assert!(!mgr.eval(f, &assignment));
        }
        // And new operations still work (caches were invalidated correctly).
        let again = mgr.xor(keep[0], keep[1]);
        assert!(!again.is_terminal());
        assert_eq!(mgr.stats().gc_runs, 1);
    }

    #[test]
    fn gc_marks_through_complemented_roots() {
        let mut mgr = Manager::new(4);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let f = mgr.and(x, y);
        let nf = mgr.not(f);
        // Keep only the complemented phase: the shared node must survive.
        mgr.collect_garbage(&[nf]);
        assert!(mgr.eval(nf, &[false, false, false, false]));
        assert!(!mgr.eval(nf, &[true, true, false, false]));
        // The regular phase is the same node and still valid.
        assert!(mgr.eval(f, &[true, true, false, false]));
    }

    #[test]
    fn gc_reuses_freed_slots() {
        let mut mgr = Manager::new(4);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let _garbage = mgr.and(x, y);
        let slots_before = mgr.arena.allocated_slots();
        mgr.collect_garbage(&[x, y]);
        // Recreating a node reuses a freed slot instead of growing the
        // arena (var(2) legitimately opens one fresh slot in its own
        // chunk; the and() below must reuse the freed var-0 id).
        let z = mgr.var(2);
        let _new = mgr.and(x, z);
        assert!(mgr.arena.allocated_slots() <= slots_before + 1);
    }

    #[test]
    fn add_vars_extends_the_order() {
        let mut mgr = Manager::new(2);
        let first_new = mgr.add_vars(3);
        assert_eq!(first_new, 2);
        assert_eq!(mgr.num_vars(), 5);
        let v4 = mgr.var(4);
        assert!(mgr.eval(v4, &[false, false, false, false, true]));
    }

    #[test]
    fn exists_quantification() {
        let mgr = Manager::new(2);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let f = mgr.and(x, y);
        let ex = mgr.exists(f, 0);
        assert_eq!(ex, y);
        let both = mgr.exists(ex, 1);
        assert!(both.is_true());
    }

    // ------------------------------------------------------------------ //
    // Kernel specifics: lossy caches, epochs, auto-tuning, unique table
    // ------------------------------------------------------------------ //

    #[test]
    fn specialized_ops_agree_with_ite_lowering() {
        let mgr = Manager::new(6);
        let mut functions = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                let x = mgr.var(i);
                let y = mgr.var(j);
                functions.push(mgr.xor(x, y));
                functions.push(mgr.and(x, y));
            }
        }
        for &f in &functions {
            for &g in &functions {
                let and_direct = mgr.and(f, g);
                let and_ite = mgr.ite(f, g, NodeId::FALSE);
                assert_eq!(and_direct, and_ite);
                let or_direct = mgr.or(f, g);
                let or_ite = mgr.ite(f, NodeId::TRUE, g);
                assert_eq!(or_direct, or_ite);
                let xor_direct = mgr.xor(f, g);
                let ng = mgr.not(g);
                let xor_ite = mgr.ite(f, ng, g);
                assert_eq!(xor_direct, xor_ite);
            }
        }
    }

    #[test]
    fn cache_stats_count_hits_and_misses() {
        let mgr = Manager::new(8);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let first = mgr.and(x, y);
        assert_eq!(mgr.stats().and_cache.misses, 1);
        assert_eq!(mgr.stats().and_cache.hits, 0);
        // Identical and argument-swapped calls hit the normalised cache key.
        let second = mgr.and(x, y);
        let third = mgr.and(y, x);
        assert_eq!(first, second);
        assert_eq!(first, third);
        assert_eq!(mgr.stats().and_cache.hits, 2);
        assert_eq!(mgr.stats().and_cache.misses, 1);
        assert!(mgr.stats().cache_hit_rate() > 0.0);
    }

    #[test]
    fn gc_invalidates_caches_via_epoch() {
        let mut mgr = Manager::new(4);
        let x = mgr.var(0);
        let y = mgr.var(1);
        let f = mgr.xor(x, y);
        let hits_before = mgr.stats().xor_cache.hits;
        mgr.collect_garbage(&[f]);
        // Same lookup after GC must MISS (epoch moved on), not alias a stale
        // entry, and must still produce the identical canonical node.
        let again = mgr.xor(x, y);
        assert_eq!(again, f);
        assert_eq!(mgr.stats().xor_cache.hits, hits_before);
        assert!(mgr.stats().xor_cache.misses >= 2);
    }

    #[test]
    fn cache_cap_auto_tunes_on_sustained_evictions() {
        let mut mgr = Manager::new(2);
        assert_eq!(mgr.stats().cache_cap_log2, CACHE_DEFAULT_MAX_LOG2);
        // One noisy interval (too few stores) does nothing.
        mgr.tune_cache_cap(100, 90);
        assert_eq!(mgr.stats().cache_cap_log2, CACHE_DEFAULT_MAX_LOG2);
        // One high-eviction interval arms the streak, the second raises the
        // cap by one power of two.
        mgr.tune_cache_cap(10_000, 4_000);
        assert_eq!(mgr.stats().cache_cap_log2, CACHE_DEFAULT_MAX_LOG2);
        mgr.tune_cache_cap(10_000, 4_000);
        assert_eq!(mgr.stats().cache_cap_log2, CACHE_DEFAULT_MAX_LOG2 + 1);
        assert_eq!(mgr.stats().cache_cap_raises, 1);
        assert_eq!(mgr.caches[AND].max_log2, CACHE_DEFAULT_MAX_LOG2 + 1);
        // A quiet interval resets the streak.
        mgr.tune_cache_cap(10_000, 4_000);
        mgr.tune_cache_cap(10_000, 10);
        mgr.tune_cache_cap(10_000, 4_000);
        assert_eq!(mgr.stats().cache_cap_raises, 1);
        // The cap never exceeds the hard maximum.
        for _ in 0..64 {
            mgr.tune_cache_cap(10_000, 9_999);
        }
        assert_eq!(mgr.stats().cache_cap_log2, CACHE_HARD_MAX_LOG2);
    }

    #[test]
    fn unique_table_grows_and_stays_consistent() {
        const NV: usize = 12;
        let mgr = Manager::new(NV);
        // Thousands of distinct minterm chains force several table doublings.
        let minterm_bits =
            |i: usize| -> Vec<(usize, bool)> { (0..NV).map(|v| (v, i >> v & 1 == 1)).collect() };
        let cubes: Vec<NodeId> = (0..3000).map(|i| mgr.cube(&minterm_bits(i))).collect();
        assert!(
            mgr.stats().unique_resizes > 0,
            "3000 minterms over {NV} vars must outgrow the initial table"
        );
        // Hash consing stays canonical across resizes: rebuilding any cube
        // yields the identical node, and each evaluates to 1 exactly on its
        // own minterm.
        for (i, &cube) in cubes.iter().enumerate().step_by(127) {
            assert_eq!(mgr.cube(&minterm_bits(i)), cube);
            let assignment: Vec<bool> = (0..NV).map(|v| i >> v & 1 == 1).collect();
            assert!(mgr.eval(cube, &assignment));
            let mut flipped = assignment.clone();
            flipped[3] = !flipped[3];
            assert!(!mgr.eval(cube, &flipped));
        }
    }

    #[test]
    fn lossy_cache_overwrites_are_counted_not_fatal() {
        // Hammer the caches with many distinct node pairs; evictions may
        // occur and every result must stay correct (negation itself is a
        // bit flip and can no longer evict anything).
        let mgr = Manager::new(16);
        let mut nodes = Vec::new();
        for i in 0..16 {
            for j in 0..16 {
                if i == j {
                    continue;
                }
                let x = mgr.var(i);
                let y = mgr.var(j);
                let f = mgr.and(x, y);
                nodes.push((f, i, j));
            }
        }
        for &(f, i, j) in &nodes {
            let nf = mgr.not(f);
            let mut assignment = [false; 16];
            assert!(mgr.eval(nf, &assignment), "¬(xi∧xj) true on all-false");
            assignment[i] = true;
            assignment[j] = true;
            assert!(!mgr.eval(nf, &assignment));
        }
        let stats = mgr.stats();
        let total = stats.total_cache();
        assert!(total.hits + total.misses > 0);
    }

    #[test]
    fn shared_apply_from_scoped_threads_is_canonical() {
        // The concurrency smoke test at unit scale: several threads build
        // overlapping formula populations through one shared `&Manager`;
        // afterwards every function must be canonical (rebuilding it
        // serially finds the identical edge without allocating) and the
        // structure must pass the exhaustive integrity check.
        let mgr = Manager::new(10);
        let results: Vec<Vec<NodeId>> = std::thread::scope(|scope| {
            let mgr = &mgr;
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for i in 0..10 {
                            for j in 0..10 {
                                let x = mgr.var(i);
                                let y = mgr.var((j + t) % 10);
                                let a = mgr.and(x, y);
                                let b = mgr.xor(a, x);
                                out.push(mgr.or(b, y));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        mgr.check_integrity()
            .expect("integrity after parallel build");
        let created = mgr.stats().created_nodes;
        for (t, formulas) in results.iter().enumerate() {
            for (k, &f) in formulas.iter().enumerate() {
                let (i, j) = (k / 10, (k % 10 + t) % 10);
                let x = mgr.var(i);
                let y = mgr.var(j);
                let a = mgr.and(x, y);
                let b = mgr.xor(a, x);
                assert_eq!(mgr.or(b, y), f, "thread {t} formula {k} is canonical");
            }
        }
        assert_eq!(
            mgr.stats().created_nodes,
            created,
            "serial rebuild allocates nothing new"
        );
    }
}
