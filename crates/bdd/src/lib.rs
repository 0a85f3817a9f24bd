//! # sliq-bdd
//!
//! A self-contained reduced ordered binary decision diagram (ROBDD) package,
//! standing in for CUDD in the paper's tool stack.
//!
//! The bit-sliced simulator only needs *standard* BDD functionality — that is
//! the point the paper makes about being able to use an off-the-shelf BDD
//! package — so this crate provides exactly that:
//!
//! * **complement edges** (CUDD-style): every [`NodeId`] carries a
//!   complement bit, negation is an O(1) bit flip, a function and its
//!   negation share one subgraph, and `mk` keeps the representation
//!   canonical by never storing a complemented low edge,
//! * **a single-owner kernel**: a [`Manager`] is `Send` but not `Sync`, so
//!   it always runs on one thread and needs no synchronisation.  Apply
//!   operations take `&Manager` (so views can borrow it while nodes are
//!   built) and write through cells; GC and reordering take `&mut Manager`,
//!   so the borrow checker keeps them apart from every apply (see the
//!   `shard` module docs), and they advance [`Manager::generation`], which
//!   state kept across borrows checks.  Parallelism comes from independent
//!   managers, one per session,
//! * **dynamic variable reordering**: an in-place adjacent-level swap and
//!   Rudell-style sifting (one pass per run, with an automatic trigger),
//!   plus a root registry so external [`NodeId`] handles survive
//!   reordering — see the [`Manager::reorder`] /
//!   [`Manager::swap_adjacent_levels`] / [`Manager::register_root`] family
//!   and the `reorder` module docs,
//! * dedicated memoised apply recursions, with no generic if-then-else:
//!   `AND`/`XOR` (with `OR` and `NOT` folded onto them through the
//!   complement bit), the full-adder `XOR3`/`MAJ`, the controlled flip
//!   ([`Manager::controlled_flip`], the row permutation of X, CNOT and
//!   Toffoli), the cube multiplexer ([`Manager::mux`]) and the Hadamard
//!   step ([`Manager::hadamard_step`], one slice of the H/Ry(π/2) adder:
//!   sum and carry in one two-output traversal), all backed by lossy
//!   direct-mapped operation caches that grow only while at least 30 % of
//!   their lookups hit,
//! * cofactors (by one variable or a cube of literals) and cubes,
//! * exact SAT counting ([`ModelCounter`]): machine-word arithmetic up to
//!   127 counted variables, arbitrary precision above, and a memo shared
//!   by every count until the manager's generation moves,
//! * mark-and-sweep garbage collection with caller-provided roots and O(1)
//!   epoch-based cache invalidation,
//! * node and complement-edge counting,
//! * per-cache hit/miss/eviction/size statistics ([`ManagerStats`]).
//!
//! ```
//! use sliq_bdd::Manager;
//! let mut mgr = Manager::new(3);
//! let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
//! let ab = mgr.and(a, b);
//! let f = mgr.or(ab, c);                  // (a ∧ b) ∨ c
//! assert_eq!(mgr.sat_count(f, 3), sliq_bignum::UBig::from(5u64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod count;
mod hash;
mod manager;
pub mod pool;
mod reorder;
mod shard;

pub use count::ModelCounter;
pub use hash::{FxBuildHasher, FxHashMap};
pub use manager::{CacheStats, KernelMode, Manager, ManagerStats, NodeId, RootSlot};
pub use pool::default_threads;
pub use reorder::ReorderStats;
