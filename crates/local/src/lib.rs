//! Reducer-local join algorithms.
//!
//! Once the transforms of `mwsj-partition` have routed rectangles to
//! reducers, each reducer runs purely local computation. This crate
//! implements those local pieces:
//!
//! * [`planesweep`] — the classic 2-way plane-sweep join over two sets of
//!   rectangles (the local step of the 2-way joins of §5);
//! * [`multiway`] — a backtracking matcher that finds every tuple of local
//!   rectangles satisfying a multi-way query (the reducer-side join of
//!   *All-Replicate* and round 2 of *Controlled-Replicate*), plus a
//!   brute-force oracle used throughout the test suites;
//! * [`kernel`] — the precompiled, allocation-free execution engine behind
//!   the matcher: per-depth probe/verify plans, an iterative stack over a
//!   flat candidate arena, SoA rectangle storage with linear-scan probes
//!   for small relations, thread-local scratch;
//! * [`marking`] — the round-1 *Controlled-Replicate* marking procedure:
//!   which rectangles satisfy conditions C1-C4 (§7.4) and must be
//!   replicated;
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
pub mod kernel;
pub mod marking;
pub mod multiway;
pub mod planesweep;

pub use kernel::JoinKernel;

use mwsj_geom::Rect;

/// A rectangle with its record id, as shipped to reducers. Ids are unique
/// within one relation position.
pub type LocalRect = (Rect, u32);
