//! Duplicate-avoidance rules.
//!
//! Several reducers may hold every rectangle of an output tuple; exactly
//! one of them must emit it. The paper uses two designated-cell rules:
//!
//! * **2-way joins** (§5.2, §5.3, after Dittrich & Seeger): the cell
//!   containing the start point of the rectangular overlap between the two
//!   (possibly enlarged) rectangles computes the pair.
//! * **Multi-way joins** (§6.2): with `u_r` the tuple member with the
//!   largest start-point x and `u_l` the member with the smallest
//!   start-point y, the cell containing the point `(u_r.x, u_l.y)` computes
//!   the tuple.
//!
//! Under the half-open cell-region semantics of `mwsj-partition`, the
//! designated cell provably receives every tuple member routed by the
//! respective algorithm (see `mwsj-core::algorithms`), so these rules drop
//! duplicates without ever dropping the last copy.

use mwsj_geom::{Coord, Point, Rect};
use mwsj_partition::{CellId, Grid};

/// Designated cell of a 2-way range pair: the cell containing the start
/// point of `a.enlarge(d) ∩ b` (§5.3). `None` when the enlarged rectangles
/// do not overlap (then the pair cannot satisfy the range predicate either).
/// At `d = 0` it is the overlap pair's cell, the start point of `a ∩ b`
/// (§5.2).
#[must_use]
pub fn range_pair_cell(grid: &Grid, a: &Rect, b: &Rect, d: Coord) -> Option<CellId> {
    a.enlarge(d)
        .intersection(b)
        .map(|o| grid.cell_of_point(&clamp_into(grid, o.start_point())))
}

/// Designated cell of a multi-way output tuple (§6.2): the cell containing
/// `(u_r.x, u_l.y)`. Takes any borrowing iterator of the tuple's members,
/// a slice or the rectangles of a tuple that carries payloads beside them.
///
/// # Panics
///
/// Panics when the iterator is empty (an empty tuple has no designated
/// cell).
pub fn multiway_tuple_cell_of<'a, I>(grid: &Grid, members: I) -> CellId
where
    I: IntoIterator<Item = &'a Rect>,
{
    let mut xr = Coord::NEG_INFINITY;
    let mut yl = Coord::INFINITY;
    let mut any = false;
    for r in members {
        any = true;
        xr = xr.max(r.x());
        yl = yl.min(r.y());
    }
    assert!(any, "designated cell of an empty tuple");
    grid.cell_of_point(&Point::new(xr, yl))
}

/// Clamps a point into the grid extent (an enlarged rectangle may start
/// outside the space; its overlap with any in-space rectangle still starts
/// in-space in the dimension that matters, so clamping is safe).
fn clamp_into(grid: &Grid, p: Point) -> Point {
    let e = grid.extent();
    Point::new(
        p.x.clamp(e.min_x(), e.max_x()),
        p.y.clamp(e.min_y(), e.max_y()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid8() -> Grid {
        Grid::square((0.0, 80.0), (0.0, 80.0), 8)
    }

    #[test]
    fn figure2a_overlap_pair_cell_is_14() {
        // Figure 2(a): r3 and r4 overlap; the overlap area starts in cell
        // 14, so reducer 14 computes the pair. Recreate the geometry on the
        // 4x4 grid over [0, 8]^2: r3 spans cells 13-15, r4 spans 14-15.
        let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 4);
        let r3 = Rect::new(0.5, 1.8, 4.0, 1.2);
        let r4 = Rect::new(2.5, 1.5, 3.0, 0.8);
        let cell = range_pair_cell(&grid, &r3, &r4, 0.0).unwrap();
        assert_eq!(cell.paper_number(), 14);
    }

    #[test]
    fn disjoint_pair_has_no_cell() {
        let grid = grid8();
        let a = Rect::new(0.0, 10.0, 2.0, 2.0);
        let b = Rect::new(50.0, 10.0, 2.0, 2.0);
        assert_eq!(range_pair_cell(&grid, &a, &b, 0.0), None);
    }

    #[test]
    fn range_pair_cell_requires_enlarged_overlap() {
        let grid = grid8();
        let a = Rect::new(0.0, 10.0, 2.0, 2.0);
        let b = Rect::new(5.0, 10.0, 2.0, 2.0);
        assert_eq!(range_pair_cell(&grid, &a, &b, 1.0), None);
        assert!(range_pair_cell(&grid, &a, &b, 3.0).is_some());
    }

    #[test]
    fn figure3_designated_cell_is_19() {
        // Figure 3: grid 8x4 over the space; U = (u1, v1, w1, x1). x1 is
        // the rightmost rectangle, u1 the lowermost; cell 19 contains
        // (x1.x, u1.y). Recreate the geometry: 8 columns x 4 rows over
        // [0, 80] x [0, 40]. Cell 19 = (col 2, row 2) = x in [20, 30),
        // y in (10, 20].
        let grid = Grid::new((0.0, 80.0), (0.0, 40.0), 8, 4);
        // u1 starts in cell 18 (col 1, row 2) and is the lowermost.
        let u1 = Rect::new(15.0, 15.0, 4.0, 4.0);
        // v1 starts in cell 10 (col 1, row 1) crossing down into 18.
        let v1 = Rect::new(14.0, 25.0, 4.0, 12.0);
        // w1 starts in cell 2 (col 2, row 0) and reaches down into 10/11.
        let w1 = Rect::new(22.0, 38.0, 6.0, 10.0);
        // x1 starts in cell 3 (col 2, row 0), rightmost start x.
        let x1 = Rect::new(26.0, 39.0, 3.0, 8.0);
        let cell = multiway_tuple_cell_of(&grid, &[u1, v1, w1, x1]);
        // (x1.x, u1.y) = (26, 15) -> col 2, row 2 -> cell 19 (1-based).
        assert_eq!(cell.paper_number(), 19);
    }

    #[test]
    fn tuple_cell_of_iterator_matches_slice_form() {
        let grid = grid8();
        let tuple = [
            Rect::new(15.0, 15.0, 4.0, 4.0),
            Rect::new(14.0, 25.0, 4.0, 12.0),
            Rect::new(26.0, 39.0, 3.0, 8.0),
        ];
        let with_ids: Vec<(Rect, u32)> = tuple
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i as u32))
            .collect();
        assert_eq!(
            multiway_tuple_cell_of(&grid, with_ids.iter().map(|(r, _)| r)),
            multiway_tuple_cell_of(&grid, &tuple)
        );
    }

    #[test]
    fn multiway_single_rect_is_its_own_cell() {
        let grid = grid8();
        let r = Rect::new(33.0, 47.0, 2.0, 2.0);
        assert_eq!(multiway_tuple_cell_of(&grid, &[r]), grid.cell_of(&r));
    }

    fn arb_rect() -> impl Strategy<Value = Rect> {
        (0.0..70.0f64, 10.0..80.0f64, 0.0..10.0f64, 0.0..10.0f64)
            .prop_map(|(x, y, l, b)| Rect::new(x, y, l.min(80.0 - x), b.min(y)))
    }

    /// A 7×5 grid, a 9×3 one (3:1) and a non-dyadic one off the origin,
    /// whose `cell_rect` corners differ from the division's boundaries.
    fn home_grids() -> [Grid; 3] {
        [
            Grid::new((0.0, 70.0), (0.0, 50.0), 7, 5),
            Grid::new((0.0, 3.0), (0.0, 1.0), 9, 3),
            Grid::new((-0.3, 0.7), (0.1, 1.0), 7, 3),
        ]
    }

    /// A start coordinate in `[lo, hi]`: `kind` 0 is anywhere, 1 a
    /// `cell_rect` boundary, 2 one float either side of it, 3 `far` (the
    /// global right or bottom edge).
    fn start_coord(kind: u32, f: f64, (lo, hi): (f64, f64), far: f64, boundary: f64) -> f64 {
        let v = match kind {
            0 => lo + f * (hi - lo),
            1 => boundary,
            2 if f < 0.5 => boundary.next_down(),
            2 => boundary.next_up(),
            _ => far,
        };
        v.clamp(lo, hi)
    }

    proptest! {
        /// The largest home column and the largest home row of a tuple's
        /// members name its §6.2 cell, because the point-to-index maps are
        /// monotone: what the store's once-per-run homing check and the
        /// map-side tally's shortcut rest on.
        #[test]
        fn prop_largest_home_column_and_row_is_the_designated_cell(
            g in 0..3usize,
            members in proptest::collection::vec(
                (0..4u32, 0..4u32, 0.0..1.0f64, 0.0..1.0f64, proptest::bool::ANY),
                1..6,
            ),
        ) {
            let grid = &home_grids()[g];
            let ((x0, xn), (y0, yn)) = (grid.x_range(), grid.y_range());
            let tuple: Vec<Rect> = members
                .iter()
                .map(|&(kx, ky, fx, fy, flat)| {
                    let at = (fx * 8.0) as u32 % grid.cols();
                    let x = grid.cell_rect(grid.cell_at(at, 0)).min_x();
                    let x = start_coord(kx, fx, (x0, xn), xn, x);
                    let at = (fy * 8.0) as u32 % grid.rows();
                    let y = grid.cell_rect(grid.cell_at(0, at)).max_y();
                    let y = start_coord(ky, fy, (y0, yn), y0, y);
                    // Zero-area, or as large as fits in the space.
                    let (l, b) = if flat { (0.0, 0.0) } else { ((xn - x) * fy, (y - y0) * fx) };
                    Rect::new(x, y, l, b)
                })
                .collect();
            let col = tuple.iter().map(|r| grid.col_of_x(r.min_x())).max().unwrap();
            let row = tuple.iter().map(|r| grid.row_of_y(r.max_y())).max().unwrap();
            prop_assert_eq!(grid.cell_at(col, row), multiway_tuple_cell_of(grid, &tuple));
        }

        #[test]
        fn prop_range_cell_shared_by_routing(a in arb_rect(), b in arb_rect(), d in 0.0..20.0f64) {
            // §5.3 routing: a is sent to cells overlapping a.enlarge(d), b
            // is split. The designated cell must be in both target sets. At
            // d = 0 both are split: the 2-way overlap join (§5.2).
            let grid = grid8();
            for d in [0.0, d] {
                if let Some(cell) = range_pair_cell(&grid, &a, &b, d) {
                    let enlarged = a.enlarge(d).intersection(&grid.extent()).unwrap();
                    prop_assert!(grid.split_cells(&enlarged).any(|c| c == cell));
                    prop_assert!(grid.split_cells(&b).any(|c| c == cell));
                }
            }
        }

        #[test]
        fn prop_designated_cell_in_fourth_quadrant_of_every_member(
            a in arb_rect(), b in arb_rect(), c in arb_rect()
        ) {
            // All-Replicate routes every rectangle to its 4th quadrant; the
            // designated cell must lie in each member's 4th quadrant.
            let grid = grid8();
            let cell = multiway_tuple_cell_of(&grid, &[a, b, c]);
            for r in [&a, &b, &c] {
                prop_assert!(
                    grid.fourth_quadrant_cells(r).any(|c| c == cell),
                    "designated cell {cell:?} outside 4th quadrant of {r:?}"
                );
            }
        }
    }
}
