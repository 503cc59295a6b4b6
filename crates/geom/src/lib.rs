//! Geometry primitives for multi-way spatial join processing.
//!
//! This crate implements the object model of *Processing Multi-Way Spatial
//! Joins on Map-Reduce* (Gupta et al., EDBT 2013, §1.1): spatial objects are
//! approximated by their minimum bounding rectangles (MBRs), and the join
//! *filter* step operates purely on rectangles. A rectangle is represented in
//! the paper's `(x, y, l, b)` form, where `(x, y)` is the **top-left vertex**
//! (the *start point*), `l` the length along x and `b` the breadth along y.
//! The y axis points **up**: a rectangle spans `[x, x + l]` horizontally and
//! `[y - b, y]` vertically.
//!
//! The crate provides:
//!
//! * [`Point`] — a 2D point.
//! * [`Rect`] — an MBR with the paper's predicates: closed [`Rect::overlaps`]
//!   and distance-based range tests ([`Rect::within_distance`]).
//! * [`Rect::enlarge`] / [`Rect::enlarge_factor`] — the two enlargement
//!   operations of §5.3 and §7.8.6.
//! * [`Polygon`] — simple polygons for the *refinement* step, with exact
//!   intersection and distance tests, and [`Polygon::mbr`] extraction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod point;
mod polygon;
mod rect;

pub use point::Point;
pub use polygon::Polygon;
pub use rect::{bounds_within, Rect};

/// Numeric coordinate type used throughout the workspace.
pub type Coord = f64;
