//! Storage of the single-owner BDD kernel: the level-segregated compact
//! node arena (8-byte cells in per-variable chunks, reclaimable as
//! generations), the per-variable unique subtables over 4-byte id-only
//! slots, the lossy direct-mapped operation caches, the byte-budget tracker
//! and the hot-path statistics counters.
//!
//! # Ownership design
//!
//! A [`crate::Manager`] has exactly one owner, and the types in this module
//! are what enforce it: every word an apply operation may write is a
//! [`Cell`] (or, for the two structures that can grow in the middle of an
//! apply — a subtable's slot array and a free list — a [`RefCell`]), and
//! neither is `Sync`.  The manager is therefore `Send` — a session can be
//! built on one thread and handed to a server worker — but not `Sync`:
//! sharing one manager between threads is a compile error rather than a
//! silent canonicity bug.  Parallelism lives one level up, in independent
//! sessions that each own a manager.
//!
//! The manager still has two kinds of operation, and the borrow checker
//! tells them apart:
//!
//! * **Apply operations** (`&Manager`): every apply recursion (`and`, `xor`,
//!   `xor3`, `maj`, `controlled_flip`, `mux`, `cofactor`) and the node
//!   constructor `mk` take `&self`, so read-only helpers that borrow the
//!   manager — the sampler's conditioned views — stay usable while new
//!   nodes are built.  Apply operations only ever *add*: they bump the
//!   allocator, store into empty subtable slots, overwrite cache entries
//!   and count.
//! * **Exclusive phases** (`&mut Manager`): garbage collection, variable
//!   reordering, cache growth/invalidation and root-registry updates.
//!   Holding `&mut Manager` proves that no apply recursion is in flight and
//!   that no borrowed helper still refers to a node id, so these phases may
//!   free nodes, relabel them, release chunks and resize caches.  The ones
//!   that may free a node or change the order advance
//!   [`crate::Manager::generation`], so state kept across borrows (a
//!   [`crate::ModelCounter`] memo) can tell it is stale.  The simulator
//!   enters them only at gate boundaries.
//!
//! ## The compact level-segregated layout
//!
//! A node is `(var, low, high)`, but the kernel already splits its unique
//! table *by variable* — the variable of a node is recoverable from which
//! subtable holds it.  The arena therefore segregates storage the same way
//! and stops duplicating the label per node:
//!
//! * Node storage is an array of fixed-size **chunks** ([`CHUNK_LEN`] cells
//!   each).  A cell is a single `u64` holding the packed children — **8
//!   bytes per node**.
//! * Every chunk has exactly one **owner variable**; `var_of(id)` is a read
//!   of the id's chunk header, not of the node.  Allocation is per
//!   variable: `bump(var)` fills `var`'s active chunk and acquires a fresh
//!   one when it is full, so nodes of one level are stored contiguously —
//!   which is also why whole chunks become reclaimable (below).
//! * Reordering relabels nodes **in place** (same id, new variable), which
//!   breaks the one-owner rule for the affected chunk.  Such a chunk lazily
//!   materialises a `vars` **sidecar** (one `u32` per cell, exclusive phase
//!   only) recording each node's true variable; `var_of` prefers the
//!   sidecar when present.  The sweep drops the sidecar again as soon as a
//!   chunk's live nodes all share one variable, so the 8-byte common case
//!   is self-restoring.
//! * A unique-table slot stores only the node **id** (4 bytes,
//!   [`EMPTY_SLOT`] when empty).  An occupied probe slot costs one arena
//!   load (`children_of`) to compare keys; at the ≤ 3/4 load factor the
//!   expected number of extra loads per probe is below one, and the key
//!   comparison itself is exact (full 64-bit children).
//!
//! ## Generational chunk reclamation
//!
//! Chunks are **generations**: the GC sweep walks every chunk and
//!
//! * hands a chunk whose live-node count is zero back to the allocator —
//!   its cell array (and sidecar, if any) is dropped, returning the memory
//!   to the OS, and its chunk index goes on a recycle list from which
//!   `bump` will re-materialise it (with fresh cells) before growing the
//!   chunk watermark;
//! * re-owns a mixed chunk to the single variable its live nodes share, if
//!   they do, and drops the sidecar;
//! * returns the dead cells of still-live chunks to the per-variable free
//!   lists, keyed by the chunk's (possibly updated) owner.
//!
//! Reclamation is exclusive-phase only, so no probe or apply can be reading
//! a released cell array.  A released chunk's `active` pointer is cleared
//! and its `used` counter is poisoned to "full", so `bump` can never mint
//! an id into a chunk that is no longer backed by cells.  Node ids of
//! *surviving* nodes never change (a chunk is only released when it has no
//! survivors), so external handles and the root registry are untouched.
//!
//! The free list is segregated by variable to match the allocator
//! (`FreeTable`): a free id is homed under its chunk's owner, so reusing it
//! for that variable keeps the chunk single-owner and never needs a
//! sidecar.  `mk(var, …)` only ever allocates ids for `var`, and the
//! exclusive-phase producers (sweep, reorder reclamation) home ids through
//! [`NodeArena::chunk_owner`].
//!
//! ## Byte accounting
//!
//! Every allocation the kernel retains — chunk cell arrays, sidecars, the
//! chunk directory, unique-table slot arrays, operation-cache words — is
//! charged to the arena's [`MemTracker`] at the point it is made and
//! released when it is dropped, so `bytes()` is an exact running total (and
//! `peak()` its high-water mark) rather than an estimate.  The manager
//! polls `over_budget()` at its enforcement points (gate boundaries,
//! per-direction sift loops); the budget is deliberately **non-sticky** so
//! a GC that recovers below the limit lets execution resume gracefully.
//!
//! ## Hash consing and the operation caches
//!
//! `mk` probes the subtable of the node's variable once: the walk stops at
//! the matching node or at the first empty slot, and only in the second
//! case does the allocator run and the new id go into that slot — a node is
//! never allocated for a key that already exists.  A subtable past its 3/4
//! load factor doubles right after the insert, so every probe finds an
//! empty slot.  Entries are only ever *added* by apply operations; deletion
//! (backward shift, for reordering) and rebuilds (GC) are exclusive-phase.
//!
//! The operation caches are lossy: each entry is just its key words, its
//! result (or the Hadamard step's result pair) and the cache epoch.  A
//! colliding store overwrites the old entry (an *eviction*), and losing an
//! entry only costs recomputation.  Growth is deferred and hit-driven:
//! misses decrement a budget, and at the next exclusive phase the manager
//! doubles a cache whose budget ran out only if enough of its lookups hit,
//! so a cache never reallocates under an apply and a cache that never hits
//! never grows.

use crate::hash::mix64;
use crate::manager::{pack_children, NodeId};
use std::cell::{Cell, OnceCell, RefCell};

// ---------------------------------------------------------------------- //
// Byte-budget tracking
// ---------------------------------------------------------------------- //

/// Exact running byte accounting for one manager: every retained kernel
/// allocation (chunk cells, sidecars, chunk directory, subtable slots,
/// op-cache words) is charged on creation and released on drop.  The limit
/// is `usize::MAX` when unbounded; `over_budget` is a plain comparison so
/// the enforcement points stay cheap, and the check is non-sticky — a GC
/// that recovers below the limit lets execution resume.
#[derive(Debug, Clone)]
pub(crate) struct MemTracker {
    bytes: Cell<usize>,
    peak: Cell<usize>,
    limit: Cell<usize>,
}

impl MemTracker {
    fn new() -> Self {
        Self {
            bytes: Cell::new(0),
            peak: Cell::new(0),
            limit: Cell::new(usize::MAX),
        }
    }

    /// Charges `n` freshly retained bytes, updating the high-water mark.
    pub(crate) fn add(&self, n: usize) {
        let now = self.bytes.get() + n;
        self.bytes.set(now);
        self.peak.set(self.peak.get().max(now));
    }

    /// Releases `n` bytes.
    pub(crate) fn sub(&self, n: usize) {
        self.bytes.set(self.bytes.get() - n);
    }

    /// The current retained-byte total.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes.get()
    }

    /// The high-water mark of [`MemTracker::bytes`].
    pub(crate) fn peak(&self) -> usize {
        self.peak.get()
    }

    /// Sets (or clears, with `None`) the hard byte budget.
    pub(crate) fn set_limit(&self, limit: Option<usize>) {
        self.limit.set(limit.unwrap_or(usize::MAX));
    }

    /// The configured byte budget, if any.
    pub(crate) fn limit(&self) -> Option<usize> {
        match self.limit.get() {
            usize::MAX => None,
            n => Some(n),
        }
    }

    /// Whether the running total currently exceeds the budget.
    pub(crate) fn over_budget(&self) -> bool {
        self.bytes.get() > self.limit.get()
    }
}

// ---------------------------------------------------------------------- //
// Level-segregated compact node arena
// ---------------------------------------------------------------------- //

/// log2 of a chunk's cell count.
const CHUNK_BITS: u32 = 10;
/// Nodes per chunk (8 KiB of cells).
pub(crate) const CHUNK_LEN: usize = 1 << CHUNK_BITS;
/// Chunk-directory groups; group `g` holds `2^g` chunk slots, so the
/// directory addresses `2^22 − 1` chunks — past the `2^21` the id space
/// (bit 31 is the complement bit) can ever need.
const CHUNK_GROUPS: usize = 22;
/// Hard chunk cap: `2^21` chunks of `2^10` cells exhaust the 31-bit id
/// space exactly.
const MAX_CHUNKS: u32 = 1 << 21;
/// Sentinel for "variable has no active chunk".
const NO_CHUNK: u32 = u32::MAX;
/// Sentinel owner for chunk slots that were never acquired.
const NO_OWNER: u32 = u32::MAX;

/// A plain node value, the unit the rest of the kernel reads and writes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) var: u32,
    pub(crate) low: NodeId,
    pub(crate) high: NodeId,
}

/// Directory position of a chunk index.
#[inline]
fn group_of(chunk: u32) -> (usize, usize) {
    let shifted = chunk + 1;
    let group = (31 - shifted.leading_zeros()) as usize;
    (group, (shifted - (1u32 << group)) as usize)
}

/// One chunk of node storage: [`CHUNK_LEN`] packed-children cells owned by
/// a single variable, plus a lazy per-cell variable sidecar for chunks that
/// reordering has made mixed.  `cells`/`vars` are `OnceCell`s so a released
/// chunk drops its arrays and a recycled chunk re-materialises them.
#[derive(Debug, Clone)]
struct ChunkSlot {
    cells: OnceCell<Box<[Cell<u64>]>>,
    vars: OnceCell<Box<[Cell<u32>]>>,
    owner: Cell<u32>,
    used: Cell<u32>,
}

impl Default for ChunkSlot {
    fn default() -> Self {
        Self {
            cells: OnceCell::new(),
            vars: OnceCell::new(),
            owner: Cell::new(NO_OWNER),
            used: Cell::new(0),
        }
    }
}

fn zero_cells() -> Box<[Cell<u64>]> {
    (0..CHUNK_LEN).map(|_| Cell::new(0)).collect()
}

/// The level-segregated node arena (see the module docs): per-variable
/// active chunks with bump allocation, a lazily grown chunk directory,
/// chunk-granular release/recycle, and the manager's byte tracker.  Node
/// ids are never relocated; a chunk is only released when none of its
/// nodes survive.
#[derive(Debug, Clone)]
pub(crate) struct NodeArena {
    groups: [OnceCell<Box<[ChunkSlot]>>; CHUNK_GROUPS],
    /// `active[var]` is the chunk `bump(var)` currently fills
    /// ([`NO_CHUNK`] when none).
    active: Vec<Cell<u32>>,
    /// Watermark: chunks `0..next_chunk` have been materialised at least
    /// once.
    next_chunk: Cell<u32>,
    /// Chunk indices released by the sweep, reused before the watermark
    /// grows.
    recycled: RefCell<Vec<u32>>,
    mem: MemTracker,
    /// Chunks handed back by [`NodeArena::sweep`] over the arena's
    /// lifetime.
    chunks_reclaimed: u64,
}

impl NodeArena {
    /// An arena containing only the terminal node (id 0) with the given
    /// sentinel variable index.  Chunk 0 is the terminal's: permanently
    /// full, owned by the sentinel, never swept — ids 1..[`CHUNK_LEN`] are
    /// deliberately unused (8 KiB, the price of keeping id 0 special-case
    /// free on the hot path).
    pub(crate) fn new(terminal_var: u32) -> Self {
        let arena = Self {
            groups: std::array::from_fn(|_| OnceCell::new()),
            active: (0..terminal_var).map(|_| Cell::new(NO_CHUNK)).collect(),
            next_chunk: Cell::new(1),
            recycled: RefCell::new(Vec::new()),
            mem: MemTracker::new(),
            chunks_reclaimed: 0,
        };
        let slot = arena.ensure_chunk(0);
        slot.owner.set(terminal_var);
        slot.used.set(CHUNK_LEN as u32);
        slot.cells.get_or_init(|| {
            arena.mem.add(CHUNK_LEN * 8);
            zero_cells()
        });
        arena.write(
            0,
            Node {
                var: terminal_var,
                low: NodeId::TRUE,
                high: NodeId::TRUE,
            },
        );
        arena
    }

    /// The manager-wide byte tracker (subtables and op caches charge here
    /// too, so the total is the whole kernel's retained footprint).
    pub(crate) fn mem(&self) -> &MemTracker {
        &self.mem
    }

    /// Chunks released back to the allocator over the arena's lifetime.
    pub(crate) fn chunks_reclaimed(&self) -> u64 {
        self.chunks_reclaimed
    }

    /// An exclusive upper bound on every id ever handed out (for sizing
    /// mark bitmaps and reference arrays).
    pub(crate) fn id_bound(&self) -> usize {
        (self.next_chunk.get() as usize) << CHUNK_BITS
    }

    fn ensure_chunk(&self, chunk: u32) -> &ChunkSlot {
        let (group, idx) = group_of(chunk);
        let slots = self.groups[group].get_or_init(|| {
            self.mem
                .add((1usize << group) * std::mem::size_of::<ChunkSlot>());
            (0..1usize << group).map(|_| ChunkSlot::default()).collect()
        });
        &slots[idx]
    }

    #[inline]
    fn chunk_slot(&self, chunk: u32) -> &ChunkSlot {
        let (group, idx) = group_of(chunk);
        &self.groups[group].get().expect("directory of a live chunk")[idx]
    }

    #[inline]
    fn chunk_slot_opt(&self, chunk: u32) -> Option<&ChunkSlot> {
        let (group, idx) = group_of(chunk);
        self.groups[group].get().map(|slots| &slots[idx])
    }

    #[inline]
    fn slot_of(&self, id: u32) -> (&ChunkSlot, usize) {
        (
            self.chunk_slot(id >> CHUNK_BITS),
            (id & (CHUNK_LEN as u32 - 1)) as usize,
        )
    }

    /// Bump-allocates a fresh id for `var` from its active chunk, acquiring
    /// a new chunk when the active one is full (or absent).
    pub(crate) fn bump(&self, var: u32) -> u32 {
        loop {
            let chunk = self.active[var as usize].get();
            if chunk != NO_CHUNK {
                let slot = self.chunk_slot(chunk);
                let n = slot.used.get();
                if n < CHUNK_LEN as u32 {
                    slot.used.set(n + 1);
                    return (chunk << CHUNK_BITS) | n;
                }
            }
            self.acquire_chunk(var);
        }
    }

    /// Installs a fresh (or recycled) chunk as `var`'s active chunk.
    #[cold]
    fn acquire_chunk(&self, var: u32) {
        let recycled = self.recycled.borrow_mut().pop();
        let chunk = recycled.unwrap_or_else(|| {
            let chunk = self.next_chunk.get();
            assert!(chunk < MAX_CHUNKS, "node arena overflow (2^31 node ids)");
            self.next_chunk.set(chunk + 1);
            chunk
        });
        let slot = self.ensure_chunk(chunk);
        slot.owner.set(var);
        slot.used.set(0);
        slot.cells.get_or_init(|| {
            self.mem.add(CHUNK_LEN * 8);
            zero_cells()
        });
        self.active[var as usize].set(chunk);
    }

    /// The owner variable of `id`'s chunk (the free-list homing key; equals
    /// the node's variable except in mixed, sidecar-carrying chunks).
    #[inline]
    pub(crate) fn chunk_owner(&self, id: u32) -> u32 {
        self.chunk_slot(id >> CHUNK_BITS).owner.get()
    }

    #[inline]
    pub(crate) fn var_of(&self, id: u32) -> u32 {
        let (slot, offset) = self.slot_of(id);
        match slot.vars.get() {
            Some(vars) => vars[offset].get(),
            None => slot.owner.get(),
        }
    }

    #[inline]
    pub(crate) fn low_of(&self, id: u32) -> NodeId {
        NodeId::from_bits((self.children_of(id) >> 32) as u32)
    }

    #[inline]
    pub(crate) fn high_of(&self, id: u32) -> NodeId {
        NodeId::from_bits(self.children_of(id) as u32)
    }

    /// The packed children of `id` — one 8-byte load, the unique-table
    /// probe key.
    #[inline]
    pub(crate) fn children_of(&self, id: u32) -> u64 {
        let (slot, offset) = self.slot_of(id);
        slot.cells.get().expect("cells of a live id")[offset].get()
    }

    #[inline]
    pub(crate) fn get(&self, id: u32) -> Node {
        let children = self.children_of(id);
        Node {
            var: self.var_of(id),
            low: NodeId::from_bits((children >> 32) as u32),
            high: NodeId::from_bits(children as u32),
        }
    }

    /// Writes a freshly allocated node's fields.  The node's variable must
    /// match the chunk owner unless the chunk already carries a sidecar —
    /// which the allocation discipline guarantees: `mk(var, …)` only
    /// allocates ids homed under `var`.
    #[inline]
    pub(crate) fn write(&self, id: u32, node: Node) {
        let (slot, offset) = self.slot_of(id);
        slot.cells.get().expect("cells of a live id")[offset]
            .set(pack_children(node.low, node.high));
        if let Some(vars) = slot.vars.get() {
            vars[offset].set(node.var);
        } else {
            debug_assert_eq!(
                slot.owner.get(),
                node.var,
                "a fresh node must match its chunk owner"
            );
        }
    }

    /// Rewrites a node in place with a possibly different variable (the
    /// reordering relabel).  Materialises the chunk's variable sidecar on
    /// the first cross-variable write (every cell starts as the owner, so
    /// the other nodes keep their labels).
    pub(crate) fn write_relabel(&mut self, id: u32, node: Node) {
        let (slot, offset) = self.slot_of(id);
        slot.cells.get().expect("cells of a live id")[offset]
            .set(pack_children(node.low, node.high));
        let owner = slot.owner.get();
        if node.var != owner && slot.vars.get().is_none() {
            slot.vars.get_or_init(|| {
                self.mem.add(CHUNK_LEN * 4);
                (0..CHUNK_LEN).map(|_| Cell::new(owner)).collect()
            });
        }
        if let Some(vars) = slot.vars.get() {
            vars[offset].set(node.var);
        }
    }

    /// Calls `f(id)` for every id ever handed out and still backed by
    /// cells (freed-but-unreclaimed ids included; released chunks
    /// skipped).
    pub(crate) fn for_each_allocated(&self, mut f: impl FnMut(u32)) {
        for chunk in 1..self.next_chunk.get() {
            let Some(slot) = self.chunk_slot_opt(chunk) else {
                continue;
            };
            if slot.cells.get().is_none() {
                continue;
            }
            let used = (slot.used.get() as usize).min(CHUNK_LEN);
            let base = chunk << CHUNK_BITS;
            for offset in 0..used as u32 {
                f(base | offset);
            }
        }
    }

    /// The number of allocated node slots (live + freed, terminal and the
    /// terminal chunk's padding excluded) across all live chunks.
    pub(crate) fn allocated_slots(&self) -> usize {
        let mut total = 0usize;
        self.for_each_allocated(|_| total += 1);
        total
    }

    /// Retained arena bytes: live chunk cell arrays plus sidecars.  (A
    /// subset of [`MemTracker::bytes`], which also counts the chunk
    /// directory, subtables and op caches.)  Returns `(cell_bytes,
    /// sidecar_bytes)`.
    pub(crate) fn arena_bytes(&self) -> (usize, usize) {
        let mut cells = 0usize;
        let mut sidecars = 0usize;
        for chunk in 0..self.next_chunk.get() {
            let Some(slot) = self.chunk_slot_opt(chunk) else {
                continue;
            };
            if slot.cells.get().is_some() {
                cells += CHUNK_LEN * 8;
            }
            if slot.vars.get().is_some() {
                sidecars += CHUNK_LEN * 4;
            }
        }
        (cells, sidecars)
    }

    /// The generational sweep: walks every chunk against the GC mark
    /// bitmap and returns `(live_ids, per_var_free_lists)`.  Chunks with no
    /// survivors are released (cells and sidecar dropped, index recycled);
    /// mixed chunks whose survivors share one variable are re-owned to it
    /// and lose their sidecar; dead cells of surviving chunks are homed
    /// under the chunk's final owner.
    pub(crate) fn sweep(&mut self, marked: &[bool]) -> (Vec<u32>, Vec<Vec<u32>>) {
        let num_vars = self.active.len();
        let mut live_ids = Vec::new();
        let mut free = vec![Vec::new(); num_vars];
        let mut to_release = Vec::new();
        let mut to_reown: Vec<(u32, u32)> = Vec::new();
        for chunk in 1..self.next_chunk.get() {
            let Some(slot) = self.chunk_slot_opt(chunk) else {
                continue;
            };
            if slot.cells.get().is_none() {
                continue;
            }
            let used = (slot.used.get() as usize).min(CHUNK_LEN);
            let base = chunk << CHUNK_BITS;
            let live_before = live_ids.len();
            let mut shared_var: Option<u32> = None;
            let mut mixed_live = false;
            for offset in 0..used as u32 {
                let id = base | offset;
                if marked[id as usize] {
                    live_ids.push(id);
                    if slot.vars.get().is_some() {
                        let var = self.var_of(id);
                        match shared_var {
                            None => shared_var = Some(var),
                            Some(v) if v != var => mixed_live = true,
                            Some(_) => {}
                        }
                    }
                }
            }
            if live_ids.len() == live_before {
                // No survivors: the whole generation is handed back.
                to_release.push(chunk);
                continue;
            }
            let mut owner = slot.owner.get();
            if slot.vars.get().is_some() && !mixed_live {
                // The survivors agree on one variable: restore the compact
                // single-owner form.
                owner = shared_var.expect("chunk has survivors");
                to_reown.push((chunk, owner));
            }
            for offset in 0..used as u32 {
                let id = base | offset;
                if !marked[id as usize] {
                    free[owner as usize].push(id);
                }
            }
        }
        for (chunk, new_owner) in to_reown {
            let (group, idx) = group_of(chunk);
            let slot = &mut self.groups[group].get_mut().expect("live chunk")[idx];
            if slot.vars.take().is_some() {
                self.mem.sub(CHUNK_LEN * 4);
            }
            let old_owner = slot.owner.replace(new_owner);
            if old_owner != new_owner && self.active[old_owner as usize].get() == chunk {
                // The old owner's bump path must not keep filling a chunk
                // that now belongs to another variable.
                self.active[old_owner as usize].set(NO_CHUNK);
            }
        }
        for chunk in to_release {
            self.release_chunk(chunk);
        }
        (live_ids, free)
    }

    /// Releases one chunk: drops its arrays (returning the memory), clears
    /// the owner's active pointer, poisons `used` so `bump` can never mint
    /// an id here, and recycles the index.
    fn release_chunk(&mut self, chunk: u32) {
        let (group, idx) = group_of(chunk);
        let slot = &mut self.groups[group].get_mut().expect("live chunk")[idx];
        if slot.cells.take().is_some() {
            self.mem.sub(CHUNK_LEN * 8);
        }
        if slot.vars.take().is_some() {
            self.mem.sub(CHUNK_LEN * 4);
        }
        slot.used.set(CHUNK_LEN as u32);
        let owner = slot.owner.replace(NO_OWNER);
        if self
            .active
            .get(owner as usize)
            .is_some_and(|active| active.get() == chunk)
        {
            self.active[owner as usize].set(NO_CHUNK);
        }
        self.recycled.get_mut().push(chunk);
        self.chunks_reclaimed += 1;
    }
}

// ---------------------------------------------------------------------- //
// Per-variable unique subtables
// ---------------------------------------------------------------------- //

/// Sentinel id marking an empty unique-table slot (regular node ids never
/// reach bit 31, so this cannot collide with a live id).
pub(crate) const EMPTY_SLOT: u32 = u32::MAX;

/// Initial per-variable subtable capacity (slots, power of two).
const SUBTABLE_INITIAL_CAPACITY: usize = 1 << 3;

/// Bytes of one subtable's slot array at `capacity`.
pub(crate) fn subtable_slot_bytes(capacity: usize) -> usize {
    capacity * std::mem::size_of::<u32>()
}

/// The hash-consing table of one variable: an open-addressed, linear-probed
/// power-of-two array of node ids — 4 bytes per slot; the probe key is
/// re-derived from the arena (`children_of`, one 8-byte load) instead of a
/// stored hash tag.  The slot array sits in a `RefCell` because `mk` may
/// double it in the middle of an apply.  Deletion (backward shift, needed
/// by reordering) and wholesale rebuilds are exclusive-phase operations.
#[derive(Debug, Clone)]
pub(crate) struct SubTable {
    slots: RefCell<Box<[Cell<u32>]>>,
    len: Cell<usize>,
}

fn empty_slots(capacity: usize) -> Box<[Cell<u32>]> {
    (0..capacity).map(|_| Cell::new(EMPTY_SLOT)).collect()
}

impl SubTable {
    pub(crate) fn new() -> Self {
        Self {
            slots: RefCell::new(empty_slots(SUBTABLE_INITIAL_CAPACITY)),
            len: Cell::new(0),
        }
    }

    /// The initial slot-array bytes a fresh subtable retains (charged by
    /// the manager, which owns the tracker).
    pub(crate) fn initial_bytes() -> usize {
        subtable_slot_bytes(SUBTABLE_INITIAL_CAPACITY)
    }

    /// Number of live nodes labelled with this subtable's variable.
    pub(crate) fn len(&self) -> usize {
        self.len.get()
    }

    /// The current slot-array capacity in bytes.
    pub(crate) fn slot_bytes(&self) -> usize {
        subtable_slot_bytes(self.slots.borrow().len())
    }

    /// Looks up the node with the given packed children.
    pub(crate) fn lookup(&self, arena: &NodeArena, children: u64) -> Option<u32> {
        let slots = self.slots.borrow();
        let mask = slots.len() - 1;
        let mut idx = mix64(children) as usize & mask;
        loop {
            let id = slots[idx].get();
            if id == EMPTY_SLOT {
                return None;
            }
            if arena.children_of(id) == children {
                return Some(id);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// The hash-consing step: one probe walk that stops at the node with
    /// these children, or at the first empty slot — where it stores the id
    /// `alloc()` allocates for them.  Returns `(id, created)`.  The
    /// allocator runs only once the miss is certain, so a node is never
    /// allocated for an existing key.  The walk always ends: the caller
    /// grows the table past its 3/4 load factor after every insert
    /// ([`SubTable::grow`]), so an empty slot always exists.
    #[inline]
    pub(crate) fn find_or_insert(
        &self,
        arena: &NodeArena,
        children: u64,
        alloc: impl FnOnce() -> u32,
    ) -> (u32, bool) {
        let slots = self.slots.borrow();
        let mask = slots.len() - 1;
        let mut idx = mix64(children) as usize & mask;
        loop {
            let found = slots[idx].get();
            if found == EMPTY_SLOT {
                let id = alloc();
                slots[idx].set(id);
                self.len.set(self.len.get() + 1);
                return (id, true);
            }
            if arena.children_of(found) == children {
                return (found, false);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Doubles the slot array if the table is past its 3/4 load factor,
    /// rehashing every live entry; returns whether it grew.
    #[cold]
    pub(crate) fn grow(&self, arena: &NodeArena) -> bool {
        let mut slots = self.slots.borrow_mut();
        if (self.len() + 1) * 4 <= slots.len() * 3 {
            return false;
        }
        arena.mem().add(subtable_slot_bytes(slots.len()));
        let doubled = empty_slots(slots.len() * 2);
        let mask = doubled.len() - 1;
        for slot in slots.iter() {
            let id = slot.get();
            if id == EMPTY_SLOT {
                continue;
            }
            let mut idx = mix64(arena.children_of(id)) as usize & mask;
            while doubled[idx].get() != EMPTY_SLOT {
                idx = (idx + 1) & mask;
            }
            doubled[idx].set(id);
        }
        *slots = doubled;
        true
    }

    /// Inserts `(children, id)`, which must not already be present
    /// (exclusive phase: GC rebuild, reordering).
    pub(crate) fn insert_exclusive(&mut self, arena: &NodeArena, children: u64, id: u32) {
        self.grow(arena);
        let slots = self.slots.get_mut();
        let mask = slots.len() - 1;
        let mut idx = mix64(children) as usize & mask;
        while slots[idx].get() != EMPTY_SLOT {
            idx = (idx + 1) & mask;
        }
        slots[idx].set(id);
        *self.len.get_mut() += 1;
    }

    /// Removes the entry for `children` (which must be present) by
    /// backward-shift deletion: subsequent probe-chain entries are moved up
    /// while doing so keeps them reachable from their home slot, so lookups
    /// never need tombstones.  Exclusive phase only (reordering).
    pub(crate) fn remove_exclusive(&mut self, arena: &NodeArena, children: u64) {
        let slots = self.slots.get_mut();
        let mask = slots.len() - 1;
        let mut idx = mix64(children) as usize & mask;
        loop {
            let id = slots[idx].get();
            debug_assert!(
                id != EMPTY_SLOT,
                "removing a key that is not in the subtable"
            );
            if id != EMPTY_SLOT && arena.children_of(id) == children {
                break;
            }
            idx = (idx + 1) & mask;
        }
        let mut hole = idx;
        let mut probe = idx;
        loop {
            probe = (probe + 1) & mask;
            let id = slots[probe].get();
            if id == EMPTY_SLOT {
                break;
            }
            // The entry at `probe` may move into the hole iff its home slot
            // is not cyclically inside (hole, probe] — otherwise the move
            // would put it before its home and break its probe chain.
            let home = mix64(arena.children_of(id)) as usize & mask;
            let in_gap = if hole <= probe {
                home > hole && home <= probe
            } else {
                home > hole || home <= probe
            };
            if !in_gap {
                slots[hole].set(id);
                hole = probe;
            }
        }
        slots[hole].set(EMPTY_SLOT);
        *self.len.get_mut() -= 1;
    }

    /// Empties the subtable, keeping its capacity (exclusive phase).
    pub(crate) fn clear_exclusive(&mut self) {
        for slot in self.slots.get_mut().iter_mut() {
            *slot.get_mut() = EMPTY_SLOT;
        }
        *self.len.get_mut() = 0;
    }

    /// The live node ids in the subtable.
    pub(crate) fn ids(&self) -> Vec<u32> {
        self.slots
            .borrow()
            .iter()
            .map(Cell::get)
            .filter(|&id| id != EMPTY_SLOT)
            .collect()
    }
}

// ---------------------------------------------------------------------- //
// Lossy direct-mapped operation caches
// ---------------------------------------------------------------------- //

/// Initial entry count (log2) of the direct-mapped caches.
pub(crate) const CACHE_INITIAL_LOG2: u32 = 12;
/// Growth cap (log2): a fully grown cache stays at a couple of MiB.
pub(crate) const CACHE_MAX_LOG2: u32 = 16;
/// The share of lookups (in percent) that must have hit since a cache's last
/// resize for it to double (CUDD's minimum hit rate).
pub(crate) const CACHE_MIN_HIT_PERCENT: u64 = 30;

/// A lossy direct-mapped memoisation cache.
///
/// Entry layouts (`stride` words per entry):
/// * stride 2 (`and`/`xor`, `cofactor`): `[key, epoch<<32|result]`
/// * stride 3 (`xor3`, `maj`, `flip`, `mux`, `hadamard`):
///   `[key, epoch<<32|key2, payload]`, where the payload is one result in
///   its low half, or both results of the Hadamard step (sum high, carry
///   low), which is why the epoch sits next to the 32-bit second key.
///
/// Every layout keeps the epoch in the high half of word 1.  A store
/// overwrites whatever the entry held; a probe hits only when the stored key
/// words and epoch match, so entries never lie.  An all-zero word 1 marks a
/// never-written entry (epochs start at 1).
///
/// Growth is *deferred* and *hit-driven*: misses decrement `grow_budget`,
/// and at the next exclusive phase ([`crate::Manager::maybe_grow_caches`])
/// a cache whose budget ran out doubles only if at least
/// [`CACHE_MIN_HIT_PERCENT`] of its lookups since its last resize hit;
/// otherwise its budget is re-armed at the same size.  A cache whose
/// lookups never repeat therefore stays at its initial size.
#[derive(Debug, Clone)]
pub(crate) struct DirectCache {
    words: Box<[Cell<u64>]>,
    /// Entry-index mask (entry count − 1), changed only in lockstep with
    /// `words`.
    mask: usize,
    /// Words per entry (2 or 3).
    stride: usize,
    /// Misses remaining until the growth rule is applied again; at most 0
    /// means "decide at the next exclusive phase".
    grow_budget: Cell<i64>,
    /// The cache's hit and miss counters at its last resize: the growth
    /// rule judges the hit rate over the lookups since then.
    hits_at_resize: u64,
    misses_at_resize: u64,
}

/// Word 1 of an entry: the epoch stamp over a 32-bit value (the result of
/// a stride-2 entry, the second key of a stride-3 one).
#[inline]
fn meta(epoch: u32, low: u32) -> u64 {
    ((epoch as u64) << 32) | low as u64
}

#[inline]
fn meta_epoch(word: u64) -> u32 {
    (word >> 32) as u32
}

/// The slot hash of a stride-3 entry's key words.
#[inline]
fn hash3(key: u64, key2: u32) -> u64 {
    mix64(key ^ mix64(key2 as u64))
}

fn zero_words(words: usize) -> Box<[Cell<u64>]> {
    (0..words).map(|_| Cell::new(0)).collect()
}

impl DirectCache {
    pub(crate) fn new(stride: usize) -> Self {
        let entries = 1usize << CACHE_INITIAL_LOG2;
        Self {
            words: zero_words(entries * stride),
            mask: entries - 1,
            stride,
            grow_budget: Cell::new(entries as i64),
            hits_at_resize: 0,
            misses_at_resize: 0,
        }
    }

    /// The retained bytes of the word array (byte-budget accounting).
    pub(crate) fn bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// The current entry count.
    pub(crate) fn entries(&self) -> usize {
        self.mask + 1
    }

    #[inline]
    fn base(&self, hash: u64) -> usize {
        (hash as usize & self.mask) * self.stride
    }

    /// Called once per store (= once per miss): spends one unit of the
    /// budget that paces the growth rule.
    #[inline]
    fn note_miss(&self) {
        self.grow_budget.set(self.grow_budget.get() - 1);
    }

    /// The growth rule, applied at an exclusive phase: once the miss budget
    /// ran out, the cache should double if it is below the cap and at least
    /// [`CACHE_MIN_HIT_PERCENT`] of the lookups `counters` saw since its
    /// last resize hit.  A cache that does not earn growth re-arms its
    /// budget at the same size.
    pub(crate) fn wants_growth(&self, counters: &CacheCounters) -> bool {
        if self.grow_budget.get() > 0 {
            return false;
        }
        let hits = counters.hits.get() - self.hits_at_resize;
        let misses = counters.misses.get() - self.misses_at_resize;
        if self.entries() < 1 << CACHE_MAX_LOG2
            && hits * 100 >= (hits + misses) * CACHE_MIN_HIT_PERCENT
        {
            return true;
        }
        self.rearm();
        false
    }

    /// Re-arms the miss budget at the current size.
    fn rearm(&self) {
        self.grow_budget.set(self.entries() as i64);
    }

    /// Doubles the entry count (exclusive phase), rehashing the entries of
    /// the current `epoch` into the new array (every entry stores its full
    /// key, so nothing warm is lost; colliding pairs resolve lossily as
    /// usual).  Stale entries are dropped, not copied.  Opens a new hit-rate
    /// window at the counts in `counters`.
    #[cold]
    pub(crate) fn grow(&mut self, epoch: u32, counters: &CacheCounters) {
        let stride = self.stride;
        let doubled = self.entries() * 2;
        let mask = doubled - 1;
        let words = zero_words(doubled * stride);
        for entry in self.words.chunks_exact(stride) {
            let word1 = entry[1].get();
            if meta_epoch(word1) != epoch {
                continue;
            }
            let k0 = entry[0].get();
            let hash = if stride == 2 {
                mix64(k0)
            } else {
                hash3(k0, word1 as u32)
            };
            let new_base = (hash as usize & mask) * stride;
            for (offset, word) in entry.iter().enumerate() {
                words[new_base + offset].set(word.get());
            }
        }
        self.words = words;
        self.mask = mask;
        self.hits_at_resize = counters.hits.get();
        self.misses_at_resize = counters.misses.get();
        self.rearm();
    }

    /// Zeroes every entry (exclusive phase; epoch-wrap fallback).
    pub(crate) fn reset(&mut self) {
        for word in self.words.iter_mut() {
            *word.get_mut() = 0;
        }
    }

    /// Looks up a stride-2 entry.
    #[inline]
    pub(crate) fn probe2(&self, epoch: u32, key: u64) -> Option<NodeId> {
        let base = self.base(mix64(key));
        let found_meta = self.words[base + 1].get();
        if self.words[base].get() == key && meta_epoch(found_meta) == epoch {
            Some(NodeId::from_bits(found_meta as u32))
        } else {
            None
        }
    }

    /// Stores a stride-2 entry, counting lossy overwrites into `stats`.
    #[inline]
    pub(crate) fn store2(&self, stats: &CacheCounters, epoch: u32, key: u64, result: NodeId) {
        let base = self.base(mix64(key));
        self.note_miss();
        let old_meta = self.words[base + 1].get();
        if meta_epoch(old_meta) == epoch && self.words[base].get() != key {
            bump(&stats.evictions);
        }
        self.words[base].set(key);
        self.words[base + 1].set(meta(epoch, result.to_bits()));
    }

    /// Looks up a stride-3 entry, returning its payload word.
    #[inline]
    pub(crate) fn probe3(&self, epoch: u32, key: u64, key2: u32) -> Option<u64> {
        let base = self.base(hash3(key, key2));
        if self.words[base].get() == key && self.words[base + 1].get() == meta(epoch, key2) {
            Some(self.words[base + 2].get())
        } else {
            None
        }
    }

    /// Stores a stride-3 entry, counting lossy overwrites into `stats`.
    #[inline]
    pub(crate) fn store3(
        &self,
        stats: &CacheCounters,
        epoch: u32,
        key: u64,
        key2: u32,
        payload: u64,
    ) {
        let base = self.base(hash3(key, key2));
        self.note_miss();
        let old_meta = self.words[base + 1].get();
        if meta_epoch(old_meta) == epoch
            && (self.words[base].get() != key || old_meta as u32 != key2)
        {
            bump(&stats.evictions);
        }
        self.words[base].set(key);
        self.words[base + 1].set(meta(epoch, key2));
        self.words[base + 2].set(payload);
    }
}

// ---------------------------------------------------------------------- //
// Hot-path statistics
// ---------------------------------------------------------------------- //

/// Increments a statistics counter.
#[inline]
pub(crate) fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
}

/// Hit/miss/eviction counters of one operation cache.
#[derive(Debug, Default, Clone)]
pub(crate) struct CacheCounters {
    pub(crate) hits: Cell<u64>,
    pub(crate) misses: Cell<u64>,
    pub(crate) evictions: Cell<u64>,
}

/// The counters apply operations bump; [`crate::ManagerStats`] snapshots
/// read them.
#[derive(Debug, Default, Clone)]
pub(crate) struct HotCounters {
    /// Indexed like [`crate::ManagerStats::caches`]: and, xor, cofactor,
    /// xor3, maj, flip, mux, hadamard.
    pub(crate) caches: [CacheCounters; 8],
    pub(crate) not_ops: Cell<u64>,
    pub(crate) complement_flips: Cell<u64>,
    pub(crate) created_nodes: Cell<u64>,
}

// ---------------------------------------------------------------------- //
// Per-variable free lists
// ---------------------------------------------------------------------- //

/// The arena's free lists, segregated by variable to match the
/// level-segregated allocator.  **Homing invariant**: `lists[v]` holds only
/// ids whose chunk owner is `v`, so a reused id never turns a single-owner
/// chunk mixed.  `mk(var, …)` pops only from `lists[var]`, and the
/// exclusive-phase producers (sweep, reorder reclamation) home ids through
/// [`NodeArena::chunk_owner`].
#[derive(Debug, Clone)]
pub(crate) struct FreeTable {
    lists: Vec<RefCell<Vec<u32>>>,
}

impl FreeTable {
    pub(crate) fn new(num_vars: usize) -> Self {
        Self {
            lists: (0..num_vars).map(|_| RefCell::new(Vec::new())).collect(),
        }
    }

    /// Total free ids across all variables (integrity checks, GC
    /// bookkeeping; not on the hot path).
    pub(crate) fn len(&self) -> usize {
        self.lists.iter().map(|list| list.borrow().len()).sum()
    }

    /// Pops a free id homed under `var`, if any.
    #[inline]
    pub(crate) fn pop(&self, var: u32) -> Option<u32> {
        self.lists[var as usize].borrow_mut().pop()
    }

    /// Returns a free id to `var`'s list (reorder reclamation).
    pub(crate) fn push(&mut self, var: u32, id: u32) {
        self.lists[var as usize].get_mut().push(id);
    }

    /// Replaces every per-variable list (the GC sweep hands back its
    /// owner-homed free lists).
    pub(crate) fn replace_all(&mut self, lists: Vec<Vec<u32>>) {
        debug_assert_eq!(lists.len(), self.lists.len(), "one list per variable");
        for (list, ids) in self.lists.iter_mut().zip(lists) {
            *list.get_mut() = ids;
        }
    }

    /// A flat snapshot of every free id (integrity checks, GC / reorder
    /// bookkeeping).
    pub(crate) fn snapshot(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for list in &self.lists {
            out.extend_from_slice(&list.borrow());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(var: u32, low: NodeId, high: NodeId) -> Node {
        Node { var, low, high }
    }

    #[test]
    fn chunk_directory_roundtrips() {
        // Every chunk index maps into its directory group and back.
        for chunk in [0u32, 1, 2, 3, 6, 7, 1023, 1024, MAX_CHUNKS - 1] {
            let (group, idx) = group_of(chunk);
            assert!(group < CHUNK_GROUPS, "group in range for {chunk}");
            assert!(idx < (1usize << group), "index in range for {chunk}");
            assert_eq!((1u32 << group) - 1 + idx as u32, chunk, "roundtrip");
        }
    }

    #[test]
    fn arena_segregates_by_variable_and_spans_chunks() {
        let arena = NodeArena::new(7);
        let mut ids = Vec::new();
        for i in 0..10_000u32 {
            let var = i % 5;
            let id = arena.bump(var);
            arena.write(id, leaf(var, NodeId::TRUE, NodeId::FALSE));
            ids.push((id, var));
        }
        for (id, var) in ids {
            assert_eq!(arena.var_of(id), var);
            assert_eq!(arena.chunk_owner(id), var, "chunks are single-owner");
            assert_eq!(arena.high_of(id), NodeId::FALSE);
        }
        assert_eq!(arena.var_of(0), 7, "terminal sentinel kept");
        assert_eq!(arena.allocated_slots(), 10_000);
        assert!(arena.mem().bytes() > 0, "chunk bytes are tracked");
    }

    #[test]
    fn sweep_releases_empty_chunks_and_recycles_them() {
        let mut arena = NodeArena::new(3);
        // Fill two full chunks of variable 0 and a partial chunk of var 1.
        for _ in 0..2 * CHUNK_LEN {
            let id = arena.bump(0);
            arena.write(id, leaf(0, NodeId::TRUE, NodeId::FALSE));
        }
        let keeper = arena.bump(1);
        arena.write(keeper, leaf(1, NodeId::TRUE, NodeId::FALSE));
        let bytes_before = arena.mem().bytes();
        // Only the var-1 node survives.
        let mut marked = vec![false; arena.id_bound()];
        marked[0] = true;
        marked[keeper as usize] = true;
        let (live, free) = arena.sweep(&marked);
        assert_eq!(live, vec![keeper]);
        assert_eq!(arena.chunks_reclaimed(), 2, "both var-0 chunks released");
        assert!(
            arena.mem().bytes() + 2 * CHUNK_LEN * 8 <= bytes_before,
            "released chunk bytes are uncharged"
        );
        assert!(free[0].is_empty(), "released ids are not on the free list");
        assert!(free[1].is_empty(), "survivor chunk has no dead cells yet");
        // The released chunks are recycled before the watermark grows.
        let bound_before = arena.id_bound();
        for _ in 0..CHUNK_LEN {
            arena.bump(2);
        }
        assert_eq!(arena.id_bound(), bound_before, "recycled, not grown");
    }

    #[test]
    fn relabel_creates_and_sweep_drops_the_sidecar() {
        let mut arena = NodeArena::new(4);
        let a = arena.bump(0);
        arena.write(a, leaf(0, NodeId::TRUE, NodeId::FALSE));
        let b = arena.bump(0);
        arena.write(b, leaf(0, NodeId::FALSE, NodeId::TRUE));
        // Relabel one node: the chunk turns mixed and gets a sidecar.
        let bytes_before = arena.mem().bytes();
        arena.write_relabel(b, leaf(2, NodeId::FALSE, NodeId::TRUE));
        assert_eq!(arena.var_of(a), 0, "other nodes keep their label");
        assert_eq!(arena.var_of(b), 2, "relabelled node reads the sidecar");
        assert_eq!(arena.mem().bytes(), bytes_before + CHUNK_LEN * 4);
        // Sweep with only the relabelled node live: the chunk re-owns to
        // var 2, drops the sidecar, and homes the dead cell under var 2.
        let mut marked = vec![false; arena.id_bound()];
        marked[0] = true;
        marked[b as usize] = true;
        let (live, free) = arena.sweep(&marked);
        assert_eq!(live, vec![b]);
        assert_eq!(arena.chunk_owner(b), 2, "chunk re-owned to the survivor");
        assert_eq!(arena.var_of(b), 2, "label survives the sidecar drop");
        assert_eq!(free[2], vec![a], "dead cell homed under the new owner");
        assert_eq!(arena.mem().bytes(), bytes_before, "sidecar bytes returned");
    }

    #[test]
    fn mem_tracker_budget_is_nonsticky() {
        let tracker = MemTracker::new();
        assert!(!tracker.over_budget(), "unlimited by default");
        tracker.set_limit(Some(100));
        tracker.add(150);
        assert!(tracker.over_budget());
        assert_eq!(tracker.peak(), 150);
        tracker.sub(100);
        assert!(!tracker.over_budget(), "recovering clears the breach");
        assert_eq!(tracker.peak(), 150, "peak is sticky");
        tracker.set_limit(None);
        tracker.add(1 << 30);
        assert!(!tracker.over_budget());
    }

    #[test]
    fn free_table_homes_ids_per_variable() {
        let mut free = FreeTable::new(3);
        free.push(0, 1024);
        free.push(1, 2048);
        free.push(1, 2049);
        assert_eq!(free.len(), 3);
        assert_eq!(free.pop(2), None, "other variables see nothing");
        assert_eq!(free.pop(0), Some(1024));
        assert_eq!(free.pop(1), Some(2049));
        assert_eq!(free.snapshot(), vec![2048]);
    }

    #[test]
    fn subtable_find_or_insert_is_canonical() {
        let arena = NodeArena::new(3);
        let table = SubTable::new();
        let mut inserted = Vec::new();
        for i in 0..100u32 {
            let high = NodeId::from_bits(i + 1);
            let children = pack_children(NodeId::TRUE, high);
            let (id, created) = table.find_or_insert(&arena, children, || {
                let id = arena.bump(0);
                arena.write(id, leaf(0, NodeId::TRUE, high));
                id
            });
            assert!(created, "fresh key must insert");
            inserted.push((children, id));
            table.grow(&arena);
        }
        for (children, id) in inserted {
            assert_eq!(table.lookup(&arena, children), Some(id));
            // Re-inserting the same key finds the canonical node without
            // calling the allocator.
            let found = table.find_or_insert(&arena, children, || panic!("no alloc"));
            assert_eq!(found, (id, false), "existing key must be found");
        }
        assert_eq!(table.len(), 100);
    }

    #[test]
    fn subtable_growth_charges_the_tracker() {
        let arena = NodeArena::new(2);
        let mut table = SubTable::new();
        let nodes: Vec<(u64, u32)> = (0..1000u32)
            .map(|i| {
                let id = arena.bump(0);
                let high = NodeId::from_bits(i + 1);
                arena.write(id, leaf(0, NodeId::TRUE, high));
                (pack_children(NodeId::TRUE, high), id)
            })
            .collect();
        let before = arena.mem().bytes();
        for (children, id) in nodes {
            table.insert_exclusive(&arena, children, id);
        }
        assert_eq!(
            arena.mem().bytes() - before,
            table.slot_bytes() - SubTable::initial_bytes(),
            "growth charges exactly the capacity delta"
        );
    }

    #[test]
    fn cache_roundtrip_and_epochs() {
        let cache = DirectCache::new(2);
        let stats = CacheCounters::default();
        cache.store2(&stats, 1, 42, NodeId::TRUE);
        assert_eq!(cache.probe2(1, 42), Some(NodeId::TRUE));
        // A different epoch is a miss, not a stale hit.
        assert_eq!(cache.probe2(2, 42), None);
        let cache = DirectCache::new(3);
        cache.store3(&stats, 1, 7, 9, u64::MAX);
        assert_eq!(cache.probe3(1, 7, 9), Some(u64::MAX));
        assert_eq!(cache.probe3(1, 7, 8), None);
        assert_eq!(cache.probe3(2, 7, 9), None);
    }

    #[test]
    fn growth_keeps_only_entries_of_the_current_epoch() {
        let stats = CacheCounters::default();
        let mut cache = DirectCache::new(3);
        // Payloads whose high halves read as the other entry's epoch: the
        // epoch lives in word 1, never in the payload.
        cache.store3(&stats, 1, 7, 9, 2 << 32);
        cache.store3(&stats, 2, 8, 9, 1 << 32);
        cache.grow(2, &stats);
        assert_eq!(cache.entries(), 2 << CACHE_INITIAL_LOG2);
        assert_eq!(cache.probe3(2, 8, 9), Some(1 << 32));
        assert_eq!(cache.probe3(1, 7, 9), None, "the stale entry is dropped");
        assert_eq!(
            cache.probe3(2, 7, 9),
            None,
            "and not revived by its payload"
        );
    }

    #[test]
    fn stride3_evictions_read_the_epoch_next_to_the_key() {
        let stats = CacheCounters::default();
        let cache = DirectCache::new(3);
        let slot = |key2: u32| cache.base(hash3(7, key2));
        let other = (10..).find(|&key2| slot(key2) == slot(9)).unwrap();
        // Overwriting a stale entry is no eviction, even when its payload's
        // high half reads as the current epoch.
        cache.store3(&stats, 1, 7, 9, 2 << 32);
        cache.store3(&stats, 2, 7, other, 0);
        assert_eq!(stats.evictions.get(), 0);
        // Overwriting a live entry with another key is.
        cache.store3(&stats, 2, 7, 9, 0);
        assert_eq!(stats.evictions.get(), 1);
        assert_eq!(cache.probe3(2, 7, other), None);
    }
}
