//! Reducer-local join algorithms.
//!
//! Once the transforms of `mwsj-partition` have routed rectangles to
//! reducers, each reducer runs purely local computation. This crate
//! implements those local pieces:
//!
//! * [`index`] — the one index a reducer builds over its group: per
//!   join-graph edge a pair list, swept from the two relations in `min_x`
//!   order on first use and read as adjacency rows by everything below;
//!   and for the kNN join a [`SortedRun`](index::SortedRun), one relation
//!   in `min_x` order, scanned outward from each probe;
//! * [`kernel`] — the reducer-side multi-way join (*All-Replicate*, both
//!   rounds of *Controlled-Replicate*, the hypercube, map-side): finds
//!   every tuple of local rectangles satisfying the query with per-depth
//!   probe/verify plans, an iterative stack over a flat candidate arena
//!   and thread-local scratch — or, for a count over an acyclic join
//!   graph, counts them on the join tree without enumerating one;
//! * [`marking`] — the round-1 *Controlled-Replicate* marking procedure:
//!   which rectangles satisfy conditions C1-C4 (§7.4) and must be
//!   replicated;
//! * [`multiway`] — the references the tests compare the kernel against:
//!   an independent recursive matcher and the brute-force oracle;
//! * [`dedup`] — the duplicate-avoidance rules: the overlap-area start
//!   point for 2-way joins (§5.2-5.3) and the
//!   `(u_r.x, u_l.y)` designated cell for multi-way joins (§6.2).
//!
//! Relations are represented positionally: `relations[i]` holds the
//! `(rect, id)` pairs of the rectangles of relation position `i` present at
//! this reducer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dedup;
pub mod index;
pub mod kernel;
pub mod marking;
pub mod multiway;

pub use index::GroupIndex;
pub use kernel::{JoinKernel, TupleFilter};

use mwsj_geom::Rect;

/// A rectangle with its record id, as shipped to reducers. Ids are unique
/// within one relation position.
pub type LocalRect = (Rect, u32);
