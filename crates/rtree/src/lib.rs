//! An STR (Sort-Tile-Recursive) bulk-loaded R-tree.
//!
//! No product join reads it: every reducer, the map-side join and the
//! kNN join search a `min_x`-sorted run (`mwsj_local::index`). Two
//! callers are left — the independent reference matcher the kernel is
//! tested against (`mwsj_local::multiway::multiway_join_naive`, index
//! nested loops over one tree per relation) and the repo benchmark's
//! probe layer — validated against brute force here.
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
