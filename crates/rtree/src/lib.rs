//! An STR (Sort-Tile-Recursive) bulk-loaded R-tree.
//!
//! Every reducer-local join in this workspace needs a spatial index: the
//! 2-way local joins of §5, the multi-way backtracking matcher, and the
//! C-Rep round-1 marking procedure all probe "which rectangles of relation
//! R overlap / lie within d of this window?". The paper leaves the local
//! algorithm unspecified; we use index nested loops over an R-tree,
//! validated against brute force here and in `mwsj-local`.
//!
//! The tree is immutable after construction (reducer inputs are batch data),
//! so STR bulk loading gives near-optimal packing with no insert machinery.
//! There is one layout — two `u64` word arrays, [`packed`] — and one
//! implementation of each query, on the borrowed [`PackedRTree`]: an
//! [`RTree`] owns the words bulk load wrote and is probed through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod packed;
mod tree;

pub use packed::{pack, PackedRTree};
pub use tree::RTree;

/// Maximum number of entries per R-tree node. 16 balances fan-out against
/// per-node scan cost for the workload sizes in the experiments.
pub const NODE_CAPACITY: usize = 16;
