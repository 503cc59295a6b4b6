//! Rectilinear space partitioning and the *project / split / replicate*
//! transform operations (§4 of the paper).
//!
//! The 2D space `[x0, xn] × [y0, yn]` is divided into a grid of
//! *partition-cells*; one reducer handles one cell. Every intermediate
//! key-value pair produced by the join algorithms is `(cell, rectangle)` and
//! its cell comes from one of three transforms, each a [`Grid`] method:
//!
//! * *project* — the cell containing the rectangle's start point
//!   ([`Grid::cell_of`]);
//! * *split* — every cell sharing at least one point with the rectangle
//!   ([`Grid::split_cells`]; grown by `d` on every side,
//!   [`Grid::split_cells_enlarged`], for the range join of §5.3);
//! * *replicate* — every cell in the 4th quadrant w.r.t. the rectangle
//!   (`f1`, [`Grid::fourth_quadrant_cells`]), optionally within a gap per
//!   axis, `dx` and `dy` (`f2`, [`Grid::fourth_quadrant_cells_within`]).
//!
//! All of them ask the grid one question — which cells does a rectangle
//! intersect ([`Grid::split_cells`]): `f2` is the split of the rectangle
//! stretched by `dx` to the right and `dy` downward, `f1` of the rectangle
//! stretched to the right and bottom edges of the space, the enlarged
//! split of the rectangle grown by `d` on every side.
//!
//! # Boundary semantics
//!
//! The paper works with real-valued coordinates where boundary coincidences
//! have measure zero; property-based tests do hit them, so this crate pins
//! down exact semantics. Cell *regions* partition the space: half-open toward
//! the lower-right (`[lo, hi)` in x, and in y the boundary value belongs to
//! the cell **below**), with the global right/bottom edges closed. A
//! rectangle's start point (top-left vertex; the body extends down/right)
//! therefore maps to the cell its body enters. "Rectangle overlaps cell"
//! means *closed rectangle ∩ half-open cell region ≠ ∅* — so two rectangles
//! that touch exactly on a cell boundary are both split onto the lower/right
//! cell, and the duplicate-avoidance arguments of §5.2/§6.2 hold without
//! measure-zero exceptions (see `mwsj-local`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod class;
mod grid;
mod transforms;

pub use class::{CellBounds, CellClass};
pub use grid::{CellId, CellSpan, Grid};
