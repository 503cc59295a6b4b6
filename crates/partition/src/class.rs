//! One cell's membership tests as four comparisons.
//!
//! Every cell-membership question a reducer asks about a rectangle —
//! where it starts relative to the reducer's cell, whether it is split
//! onto the cell, whether it crosses the cell's boundary — is a
//! comparison of a rectangle edge with where the cell's column and row
//! begin and end under the routing division ([`Grid::col_start_x`],
//! [`Grid::row_start_y`]). Column and row indices are monotone in the
//! coordinate, so `col_of_x(x) < c` exactly when `x < col_start_x(c)`, and
//! `row_of_y(y) < r` exactly when `y > row_start_y(r)`; the four bounds
//! are read once per cell and every member is classified without a
//! division. The bounds lie inside the space, so the comparisons also
//! agree with the clamp [`Grid::splits_onto`] applies to edges outside it.

use mwsj_geom::{Coord, Rect};

use crate::{CellId, Grid};

/// Where one cell's column and row begin and end under the routing
/// division; the outer edges of the grid's first and last columns and rows
/// are infinite, so nothing lies beyond them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellBounds {
    /// `col_start_x(C)`: an `x` below it lies left of the cell's column.
    left: Coord,
    /// `col_start_x(C + 1)`: an `x` at or above it lies right of it.
    right: Coord,
    /// `row_start_y(R)`: a `y` above it lies above the cell's row.
    top: Coord,
    /// `row_start_y(R + 1)`: a `y` at or below it lies below it.
    bottom: Coord,
}

/// A rectangle's relation to one cell, as [`CellBounds::classify`]
/// decides it: the column and row of its start point (top-left corner)
/// relative to the cell's, and whether it is split onto the cell and onto
/// no other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellClass(u8);

impl CellClass {
    const LEFT: u8 = 1;
    const NOT_RIGHT: u8 = 2;
    const ABOVE: u8 = 4;
    const NOT_BELOW: u8 = 8;
    const SPLIT: u8 = 16;
    const INSIDE: u8 = 32;

    /// The rectangle starts in a column left of the cell's.
    #[must_use]
    pub fn starts_left(self) -> bool {
        self.0 & Self::LEFT != 0
    }

    /// The rectangle starts in a column right of the cell's.
    #[must_use]
    pub fn starts_right(self) -> bool {
        self.0 & Self::NOT_RIGHT == 0
    }

    /// The rectangle starts in a row above the cell's.
    #[must_use]
    pub fn starts_above(self) -> bool {
        self.0 & Self::ABOVE != 0
    }

    /// The rectangle starts in a row below the cell's.
    #[must_use]
    pub fn starts_below(self) -> bool {
        self.0 & Self::NOT_BELOW == 0
    }

    /// The rectangle starts in the cell: [`Grid::cell_of`] is the cell.
    #[must_use]
    pub fn is_home(self) -> bool {
        self.0 & (Self::LEFT | Self::NOT_RIGHT | Self::ABOVE | Self::NOT_BELOW)
            == Self::NOT_RIGHT | Self::NOT_BELOW
    }

    /// [`Grid::splits_onto`] the cell.
    #[must_use]
    pub fn splits_onto(self) -> bool {
        self.0 & Self::SPLIT != 0
    }

    /// [`Grid::rect_crosses_cell`]: split onto some other cell.
    #[must_use]
    pub fn crosses(self) -> bool {
        self.0 & Self::INSIDE == 0
    }
}

impl CellBounds {
    /// Classifies a rectangle against the cell: four comparisons of its
    /// start point, four more of its other edges.
    #[must_use]
    pub fn classify(&self, r: &Rect) -> CellClass {
        let [min_x, min_y, max_x, max_y] = r.bounds();
        let bit = |on: bool, flag: u8| if on { flag } else { 0 };
        let split =
            max_x >= self.left && min_x < self.right && max_y > self.bottom && min_y <= self.top;
        let inside =
            min_x >= self.left && max_x < self.right && max_y <= self.top && min_y > self.bottom;
        CellClass(
            bit(min_x < self.left, CellClass::LEFT)
                | bit(min_x < self.right, CellClass::NOT_RIGHT)
                | bit(max_y > self.top, CellClass::ABOVE)
                | bit(max_y > self.bottom, CellClass::NOT_BELOW)
                | bit(split, CellClass::SPLIT)
                | bit(inside, CellClass::INSIDE),
        )
    }
}

impl Grid {
    /// The bounds [`CellBounds::classify`] compares against for `cell`.
    ///
    /// # Panics
    /// Panics if `cell` is not a cell of the grid.
    #[must_use]
    pub fn cell_bounds(&self, cell: CellId) -> CellBounds {
        assert!(cell.0 < self.num_cells(), "{cell:?} out of range");
        let (col, row) = (self.col_of(cell), self.row_of(cell));
        // Where column / row `k` begins; nothing lies beyond the outer ones.
        let x = |k: u32| match k {
            0 => Coord::NEG_INFINITY,
            k if k == self.cols() => Coord::INFINITY,
            k => self.col_start_x(k),
        };
        let y = |k: u32| match k {
            0 => Coord::INFINITY,
            k if k == self.rows() => Coord::NEG_INFINITY,
            k => self.row_start_y(k),
        };
        CellBounds {
            left: x(col),
            right: x(col + 1),
            top: y(row),
            bottom: y(row + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_geom::Point;
    use proptest::prelude::*;

    /// Uneven, non-dyadic and off-origin grids: where the multiplied cell
    /// corners part from the division.
    fn grids() -> [Grid; 5] {
        [
            Grid::square((0.0, 8.0), (0.0, 8.0), 4),
            Grid::square((0.0, 1000.0), (0.0, 1000.0), 3),
            Grid::new((100.1, 1100.1), (-50.3, 949.7), 7, 5),
            Grid::new((-0.3, 0.7), (0.1, 1.0), 7, 3),
            Grid::new((0.0, 10.0), (0.0, 10.0), 1, 1),
        ]
    }

    /// An edge coordinate of `[lo, hi]` split into `cells`: on a multiplied
    /// cell boundary, one float either side of it, or anywhere — and
    /// sometimes a little outside the space, which every test clamps.
    fn coordinate(lo: Coord, hi: Coord, cells: u32, pick: (u32, u32, f64)) -> Coord {
        let width = (hi - lo) / Coord::from(cells);
        let on = lo + Coord::from(pick.0 % (cells + 1)) * width;
        match pick.1 % 5 {
            0 => on,
            1 => on.next_up(),
            2 => on.next_down(),
            3 => lo + pick.2 * (hi - lo),
            _ => lo + (pick.2 * 1.2 - 0.1) * (hi - lo),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The classes are the division's own answers: `cell_of`,
        /// `splits_onto` and `rect_crosses_cell`, and the start column and
        /// row against the cell's.
        #[test]
        fn prop_classes_equal_the_division(
            which in 0usize..5,
            cell in 0u32..35,
            x in ((0u32..16, 0u32..5, 0.0..1.0f64), (0u32..16, 0u32..5, 0.0..1.0f64)),
            y in ((0u32..16, 0u32..5, 0.0..1.0f64), (0u32..16, 0u32..5, 0.0..1.0f64)),
        ) {
            let g = &grids()[which];
            let cell = CellId(cell % g.num_cells());
            let ((x0, xn), (y0, yn)) = (g.x_range(), g.y_range());
            let (xa, xb) = (coordinate(x0, xn, g.cols(), x.0), coordinate(x0, xn, g.cols(), x.1));
            let (ya, yb) = (coordinate(y0, yn, g.rows(), y.0), coordinate(y0, yn, g.rows(), y.1));
            let r = Rect::from_bounds(xa.min(xb), ya.min(yb), xa.max(xb), ya.max(yb)).unwrap();
            let class = g.cell_bounds(cell).classify(&r);
            prop_assert_eq!(class.splits_onto(), g.splits_onto(&r, cell));
            prop_assert_eq!(class.crosses(), g.rect_crosses_cell(&r, cell));
            let start = Point::new(r.min_x().clamp(x0, xn), r.max_y().clamp(y0, yn));
            let home = g.cell_of_point(&start);
            prop_assert_eq!(class.is_home(), home == cell);
            prop_assert_eq!(class.starts_left(), g.col_of(home) < g.col_of(cell));
            prop_assert_eq!(class.starts_right(), g.col_of(home) > g.col_of(cell));
            prop_assert_eq!(class.starts_above(), g.row_of(home) < g.row_of(cell));
            prop_assert_eq!(class.starts_below(), g.row_of(home) > g.row_of(cell));
        }
    }

    #[test]
    fn the_outer_cells_reach_past_the_space() {
        let g = Grid::square((0.0, 8.0), (0.0, 8.0), 4);
        let beyond = Rect::from_bounds(-5.0, -5.0, -4.0, 13.0).unwrap();
        let top_left = g.cell_bounds(g.cell_at(0, 0)).classify(&beyond);
        assert!(!top_left.starts_left() && !top_left.starts_above());
        assert!(top_left.is_home() && top_left.splits_onto() && top_left.crosses());
        let corner = g
            .cell_bounds(g.cell_at(3, 3))
            .classify(&Rect::new(8.0, 0.0, 0.0, 0.0));
        assert!(corner.is_home() && !corner.crosses());
    }
}
