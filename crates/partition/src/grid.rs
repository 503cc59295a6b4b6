use mwsj_geom::{Coord, Point, Rect};
use serde::{Deserialize, Serialize};

/// Identifier of a partition-cell.
///
/// Cells are numbered row-major from the **top-left**, starting at 0 (the
/// paper numbers them from 1; its Figure 2 cell *k* is `CellId(k - 1)`).
/// One reducer handles one cell, so a `CellId` doubles as a reducer id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellId(pub u32);

impl CellId {
    /// The paper's 1-based cell number (for cross-checking worked examples).
    #[must_use]
    pub fn paper_number(self) -> u32 {
        self.0 + 1
    }

    /// Builds a `CellId` from the paper's 1-based cell number.
    #[must_use]
    pub fn from_paper_number(n: u32) -> Self {
        assert!(n >= 1, "paper cell numbers start at 1");
        CellId(n - 1)
    }
}

/// A rectilinear partitioning of the space `[x0, xn] × [y0, yn]` into
/// `cols × rows` equal cells (§4; the paper's experiments use an 8×8 grid
/// for 64 reducers).
///
/// Rows are numbered top-down and columns left-right, so the paper's
/// "4th quadrant w.r.t. a rectangle" (cells with `c.x ≥ c_u.x` and
/// `c.y ≤ c_u.y`) is exactly the set of cells with `col ≥ col(c_u)` and
/// `row ≥ row(c_u)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    x0: Coord,
    xn: Coord,
    y0: Coord,
    yn: Coord,
    cols: u32,
    rows: u32,
    cell_w: Coord,
    cell_h: Coord,
}

/// The index a quotient `(coordinate − origin) / cell size` falls in,
/// clamped to `0..cells`. Truncated, not floored (`floor` is a libm call
/// on baseline x86-64): the two part only on negative non-integers, which
/// both clamp to 0; NaN gives 0 either way.
fn index_of(quotient: Coord, cells: u32) -> u32 {
    (quotient as i64).clamp(0, i64::from(cells) - 1) as u32
}

impl Grid {
    /// Creates a grid over `[x0, xn] × [y0, yn]` with `cols × rows` cells.
    ///
    /// # Panics
    /// Panics if the ranges are empty or the cell counts are zero.
    #[must_use]
    pub fn new(x_range: (Coord, Coord), y_range: (Coord, Coord), cols: u32, rows: u32) -> Self {
        let (x0, xn) = x_range;
        let (y0, yn) = y_range;
        assert!(xn > x0 && yn > y0, "empty space extent");
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        Self {
            x0,
            xn,
            y0,
            yn,
            cols,
            rows,
            cell_w: (xn - x0) / Coord::from(cols),
            cell_h: (yn - y0) / Coord::from(rows),
        }
    }

    /// Square grid with `side × side` cells — the paper divides each axis in
    /// `sqrt(k)` partitions for `k` reducers (§5.1).
    #[must_use]
    pub fn square(x_range: (Coord, Coord), y_range: (Coord, Coord), side: u32) -> Self {
        Self::new(x_range, y_range, side, side)
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total number of partition-cells (= reducers).
    #[must_use]
    pub fn num_cells(&self) -> u32 {
        self.cols * self.rows
    }

    /// The exact `(x0, xn)` range the grid was constructed with — the
    /// round-trip accessor for serializing grid geometry.
    #[must_use]
    pub fn x_range(&self) -> (Coord, Coord) {
        (self.x0, self.xn)
    }

    /// The exact `(y0, yn)` range the grid was constructed with.
    #[must_use]
    pub fn y_range(&self) -> (Coord, Coord) {
        (self.y0, self.yn)
    }

    /// The full space extent as a rectangle, corner for corner the range
    /// ends the grid was constructed with: a rectangle lying on an edge of
    /// the space is inside it whatever the origin.
    #[must_use]
    pub fn extent(&self) -> Rect {
        Rect::from_bounds(self.x0, self.y0, self.xn, self.yn).expect("a finite, non-empty space")
    }

    /// Cell id for `(col, row)` indices.
    ///
    /// # Panics
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn cell_at(&self, col: u32, row: u32) -> CellId {
        assert!(
            col < self.cols && row < self.rows,
            "cell index out of range"
        );
        CellId(row * self.cols + col)
    }

    /// Column index of a cell.
    #[must_use]
    pub fn col_of(&self, cell: CellId) -> u32 {
        cell.0 % self.cols
    }

    /// Row index of a cell (0 = top row).
    #[must_use]
    pub fn row_of(&self, cell: CellId) -> u32 {
        cell.0 / self.cols
    }

    /// Column index containing coordinate `x` under the half-open rule
    /// (`[lo, hi)`, global right edge closed).
    #[must_use]
    pub fn col_of_x(&self, x: Coord) -> u32 {
        debug_assert!(x >= self.x0 && x <= self.xn, "x = {x} outside the space");
        index_of((x - self.x0) / self.cell_w, self.cols)
    }

    /// Row index containing coordinate `y`. A point on a horizontal boundary
    /// belongs to the cell **below** (a rectangle starting there has its body
    /// below the boundary); the global bottom edge is closed.
    #[must_use]
    pub fn row_of_y(&self, y: Coord) -> u32 {
        debug_assert!(y >= self.y0 && y <= self.yn, "y = {y} outside the space");
        index_of((self.yn - y) / self.cell_h, self.rows)
    }

    /// The smallest `x` of the space that [`Grid::col_of_x`] places in
    /// column `col` or right of it: where the column begins under the
    /// division, which can lie an ulp or two off the multiplied
    /// [`Grid::cell_rect`] corner. `col_of_x` is monotone, so `x` lies
    /// left of column `col` exactly when `x < col_start_x(col)`.
    ///
    /// # Panics
    /// Panics if `col` is not a column of the grid.
    #[must_use]
    pub fn col_start_x(&self, col: u32) -> Coord {
        assert!(col < self.cols, "column {col} out of range");
        let mut x = (self.x0 + Coord::from(col) * self.cell_w).clamp(self.x0, self.xn);
        while x > self.x0 && self.col_of_x(x.next_down()) >= col {
            x = x.next_down();
        }
        while self.col_of_x(x) < col {
            x = x.next_up();
        }
        x
    }

    /// The largest `y` of the space that [`Grid::row_of_y`] places in row
    /// `row` or below it: where the row begins under the division.
    /// `row_of_y` is monotone, so `y` lies above row `row` exactly when
    /// `y > row_start_y(row)`.
    ///
    /// # Panics
    /// Panics if `row` is not a row of the grid.
    #[must_use]
    pub fn row_start_y(&self, row: u32) -> Coord {
        assert!(row < self.rows, "row {row} out of range");
        let mut y = (self.yn - Coord::from(row) * self.cell_h).clamp(self.y0, self.yn);
        while y < self.yn && self.row_of_y(y.next_up()) >= row {
            y = y.next_up();
        }
        while self.row_of_y(y) < row {
            y = y.next_down();
        }
        y
    }

    /// The cell containing a point.
    #[must_use]
    pub fn cell_of_point(&self, p: &Point) -> CellId {
        self.cell_at(self.col_of_x(p.x), self.row_of_y(p.y))
    }

    /// The *cell of a rectangle* (§4): the cell containing its start point.
    #[must_use]
    pub fn cell_of(&self, r: &Rect) -> CellId {
        self.cell_of_point(&r.start_point())
    }

    /// The closed rectangular extent of a cell.
    #[must_use]
    pub fn cell_rect(&self, cell: CellId) -> Rect {
        let col = self.col_of(cell);
        let row = self.row_of(cell);
        let x = self.x0 + Coord::from(col) * self.cell_w;
        let y = self.yn - Coord::from(row) * self.cell_h;
        Rect::new(x, y, self.cell_w, self.cell_h)
    }

    /// Whether the rectangle is **split** onto `cell`: the closed rectangle
    /// intersects the cell's half-open region ("has at least one point in
    /// common" in the paper's split definition, made boundary-exact; see
    /// the crate docs). Allocation-free.
    ///
    /// This is *the* cell-membership predicate. It is decided by the same
    /// point-to-index division ([`Grid::col_of_x`], [`Grid::row_of_y`])
    /// that routes [`Grid::split_cells`] and [`Grid::cell_of`], never by
    /// comparing against [`Grid::cell_rect`] corners: those are computed
    /// by multiplication and differ from the division by one ulp on
    /// non-dyadic grids, so a test against them disagrees with the routing
    /// for rectangles whose edges sit on a cell boundary.
    #[must_use]
    pub fn splits_onto(&self, r: &Rect, cell: CellId) -> bool {
        let (c0, c1, r0, r1) = self.index_span(r);
        (c0..=c1).contains(&self.col_of(cell)) && (r0..=r1).contains(&self.row_of(cell))
    }

    /// [`Grid::splits_onto`] under its older name, which callers outside
    /// the workspace (`benchmark/`) still use.
    #[must_use]
    pub fn rect_overlaps_cell(&self, r: &Rect, cell: CellId) -> bool {
        self.splits_onto(r, cell)
    }

    /// Whether the rectangle crosses the boundary of `cell`, i.e. is split
    /// onto at least one other cell. This is the overlap-predicate crossing
    /// test of condition C2 (§7.4).
    #[must_use]
    pub fn rect_crosses_cell(&self, r: &Rect, cell: CellId) -> bool {
        let (col, row) = (self.col_of(cell), self.row_of(cell));
        self.index_span(r) != (col, col, row, row)
    }

    /// Minimum distance between a cell and a rectangle — `dist(c, r)` of
    /// equation (2): zero for a cell the rectangle is split onto, the
    /// distance to the cell's closed extent otherwise. Membership decides
    /// first because [`Grid::cell_rect`] corners can sit one ulp inside the
    /// cell's region, which would put a rectangle at a positive distance
    /// from a cell it is routed to.
    #[must_use]
    pub fn cell_distance(&self, cell: CellId, r: &Rect) -> Coord {
        if self.splits_onto(r, cell) {
            0.0
        } else {
            self.cell_rect(cell).distance(r)
        }
    }

    /// Whether some cell **other than** `cell` lies within distance `d` of
    /// the rectangle — the range-predicate crossing test of condition C2 for
    /// range joins (§8).
    #[must_use]
    pub fn other_cell_within(&self, r: &Rect, cell: CellId, d: Coord) -> bool {
        // The nearest other cell is always one of the neighbours of the cells
        // the enlarged rectangle touches; scanning the cells overlapping
        // r.enlarge(d) is exact and cheap.
        let e = r.enlarge(d);
        let (c0, c1, r0, r1) = self.index_span(&e);
        for row in r0..=r1 {
            for col in c0..=c1 {
                let cand = self.cell_at(col, row);
                if cand != cell && self.cell_distance(cand, r) <= d {
                    return true;
                }
            }
        }
        false
    }

    /// Iterator over every cell in the grid, row-major.
    pub fn cells(&self) -> impl Iterator<Item = CellId> {
        (0..self.num_cells()).map(CellId)
    }

    /// Inclusive `(col_lo, col_hi, row_lo, row_hi)` index span of the cells
    /// whose regions a rectangle intersects (clamped to the grid). Column
    /// and row indices are monotone in the coordinate, so the span is exact
    /// for any rectangle that touches the space at all.
    fn index_span(&self, r: &Rect) -> (u32, u32, u32, u32) {
        let clamp_x = |x: Coord| x.clamp(self.x0, self.xn);
        let clamp_y = |y: Coord| y.clamp(self.y0, self.yn);
        let c0 = self.col_of_x(clamp_x(r.min_x()));
        let c1 = self.col_of_x(clamp_x(r.max_x()));
        let r0 = self.row_of_y(clamp_y(r.max_y()));
        let r1 = self.row_of_y(clamp_y(r.min_y()));
        (c0, c1, r0, r1)
    }

    /// All cells overlapped by the rectangle (the **split** target set, §4):
    /// exactly the cells [`Grid::splits_onto`] accepts, row-major, yielded
    /// one at a time from the index span (nothing is allocated; its
    /// `len()` is the span's area).
    #[must_use]
    pub fn split_cells(&self, r: &Rect) -> CellSpan {
        let (c0, c1, r0, r1) = self.index_span(r);
        CellSpan {
            stride: self.cols,
            cols: (c0, c1),
            last_row: r1,
            at: (c0, r0),
        }
    }

    /// The **enlarged split** of §5.3: all cells overlapped by the rectangle
    /// enlarged by `d` on every side, clipped to the space — the 2-way
    /// range-join routing, and the reach of a nearest-neighbour bound.
    ///
    /// # Panics
    /// Panics when the rectangle lies outside the space.
    #[must_use]
    pub fn split_cells_enlarged(&self, r: &Rect, d: Coord) -> CellSpan {
        let reach = r
            .enlarge(d)
            .intersection(&self.extent())
            .expect("rectangle inside the space");
        self.split_cells(&reach)
    }

    /// All cells in the 4th quadrant w.r.t. the rectangle (the **replicate**
    /// target set with function `f1`, §4): cells with `col ≥ col(c_u)` and
    /// `row ≥ row(c_u)` where `c_u` is the rectangle's cell — the split of
    /// the rectangle stretched to the right and bottom edges of the space.
    #[must_use]
    pub fn fourth_quadrant_cells(&self, r: &Rect) -> CellSpan {
        let corner = Point::new(self.xn, self.y0);
        self.split_cells(&Rect::from_corners(r.start_point(), corner))
    }

    /// Replicate target set with function `f2` (§4): the 4th-quadrant cells
    /// whose region is within a gap of `dx` of the rectangle on the x axis
    /// and of `dy` on the y axis — the split of the rectangle stretched by
    /// `dx` to the right and by `dy` downward (clipped to the space, like
    /// every split). For `dx = dy = d` this is a superset of the cells
    /// within Euclidean distance `d`.
    #[must_use]
    pub fn fourth_quadrant_cells_within(&self, r: &Rect, dx: Coord, dy: Coord) -> CellSpan {
        let corner = Point::new(r.max_x() + dx, r.min_y() - dy);
        self.split_cells(&Rect::from_corners(r.start_point(), corner))
    }
}

/// The cells of one inclusive index span, row-major: what
/// [`Grid::split_cells`] and every transform built on it yield. A caller
/// that keeps the set collects it.
#[derive(Debug, Clone)]
pub struct CellSpan {
    /// The grid's column count.
    stride: u32,
    /// First and last column of the span.
    cols: (u32, u32),
    last_row: u32,
    /// The next cell's `(col, row)`; past the span once `row > last_row`.
    at: (u32, u32),
}

impl Iterator for CellSpan {
    type Item = CellId;

    fn next(&mut self) -> Option<CellId> {
        let (col, row) = self.at;
        if row > self.last_row {
            return None;
        }
        self.at = if col == self.cols.1 {
            (self.cols.0, row + 1)
        } else {
            (col + 1, row)
        };
        Some(CellId(row * self.stride + col))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (col, row) = self.at;
        let left = if row > self.last_row {
            0
        } else {
            let width = (self.cols.1 - self.cols.0 + 1) as usize;
            (self.last_row - row) as usize * width + (self.cols.1 - col + 1) as usize
        };
        (left, Some(left))
    }
}

impl ExactSizeIterator for CellSpan {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The paper's Figure 2(a) grid: 4×4 cells over [0, 8] × [0, 8] (cell
    /// numbers 1..16 row-major from top-left).
    fn fig2_grid() -> Grid {
        Grid::square((0.0, 8.0), (0.0, 8.0), 4)
    }

    #[test]
    fn cell_numbering_is_row_major_from_top_left() {
        let g = fig2_grid();
        assert_eq!(g.cell_at(0, 0).paper_number(), 1);
        assert_eq!(g.cell_at(3, 0).paper_number(), 4);
        assert_eq!(g.cell_at(0, 1).paper_number(), 5);
        assert_eq!(g.cell_at(3, 3).paper_number(), 16);
        assert_eq!(g.num_cells(), 16);
    }

    /// Where each column and row begins under the division, on grids whose
    /// multiplied corners miss it: the first `x` of a column and the top
    /// `y` of a row are in it, and the float before (after) is not.
    #[test]
    fn col_and_row_starts_are_where_the_division_turns() {
        let grids = [
            fig2_grid(),
            Grid::new((0.0, 70.0), (0.0, 50.0), 7, 5),
            Grid::new((-0.3, 0.7), (0.1, 1.0), 7, 3),
            Grid::new((0.0, 1.0), (0.0, 1.0), 10, 10),
            Grid::new((1e15, 1e15 + 3.0), (0.0, 3.0), 10, 1),
        ];
        for g in &grids {
            let ((x0, _), (_, yn)) = (g.x_range(), g.y_range());
            assert_eq!((g.col_start_x(0), g.row_start_y(0)), (x0, yn));
            for col in 1..g.cols() {
                let x = g.col_start_x(col);
                assert!(g.col_of_x(x) >= col && g.col_of_x(x.next_down()) < col);
            }
            for row in 1..g.rows() {
                let y = g.row_start_y(row);
                assert!(g.row_of_y(y) >= row && g.row_of_y(y.next_up()) < row);
            }
        }
    }

    #[test]
    fn cell_rect_geometry() {
        let g = fig2_grid();
        // Cell 6 = (col 1, row 1): x in [2, 4], y in [4, 6].
        let c6 = CellId::from_paper_number(6);
        assert_eq!(g.cell_rect(c6), Rect::new(2.0, 6.0, 2.0, 2.0));
    }

    #[test]
    fn cell_of_point_interior() {
        let g = fig2_grid();
        assert_eq!(g.cell_of_point(&Point::new(3.0, 5.0)).paper_number(), 6);
        assert_eq!(g.cell_of_point(&Point::new(0.5, 7.5)).paper_number(), 1);
        assert_eq!(g.cell_of_point(&Point::new(7.9, 0.1)).paper_number(), 16);
    }

    #[test]
    fn boundary_point_goes_right_and_down() {
        let g = fig2_grid();
        // x = 2 is the boundary between columns 0 and 1 -> column 1.
        assert_eq!(g.cell_of_point(&Point::new(2.0, 7.0)).paper_number(), 2);
        // y = 6 is the boundary between rows 0 and 1 -> row 1 (below).
        assert_eq!(g.cell_of_point(&Point::new(1.0, 6.0)).paper_number(), 5);
        // Both at once.
        assert_eq!(g.cell_of_point(&Point::new(2.0, 6.0)).paper_number(), 6);
    }

    #[test]
    fn global_edges_are_closed() {
        let g = fig2_grid();
        assert_eq!(g.cell_of_point(&Point::new(8.0, 8.0)).paper_number(), 4);
        assert_eq!(g.cell_of_point(&Point::new(8.0, 0.0)).paper_number(), 16);
        assert_eq!(g.cell_of_point(&Point::new(0.0, 0.0)).paper_number(), 13);
    }

    #[test]
    fn split_cells_interior_rect() {
        let g = fig2_grid();
        // A rectangle inside cell 6 only.
        let r = Rect::new(2.5, 5.5, 1.0, 1.0);
        let cells: Vec<u32> = g.split_cells(&r).map(|c| c.paper_number()).collect();
        assert_eq!(cells, vec![6]);
    }

    #[test]
    fn split_cells_spanning_rect() {
        let g = fig2_grid();
        // Spans columns 1-2 and rows 1-2: cells 6, 7, 10, 11.
        let r = Rect::new(3.0, 5.0, 2.0, 2.0);
        let cells: Vec<u32> = g.split_cells(&r).map(|c| c.paper_number()).collect();
        assert_eq!(cells, vec![6, 7, 10, 11]);
    }

    #[test]
    fn split_touching_boundary_from_left_reaches_right_cell() {
        let g = fig2_grid();
        // max_x = 4.0 exactly on the col 1 / col 2 boundary: the rectangle's
        // right edge lies in column 2's region.
        let r = Rect::new(3.0, 5.5, 1.0, 0.5);
        let cells: Vec<u32> = g.split_cells(&r).map(|c| c.paper_number()).collect();
        assert_eq!(cells, vec![6, 7]);
    }

    #[test]
    fn split_touching_bottom_boundary_reaches_lower_cell() {
        let g = fig2_grid();
        // min_y = 4.0 exactly on the row 1 / row 2 boundary: the bottom edge
        // lies in row 2's region.
        let r = Rect::new(2.5, 5.0, 1.0, 1.0);
        let cells: Vec<u32> = g.split_cells(&r).map(|c| c.paper_number()).collect();
        assert_eq!(cells, vec![6, 10]);
    }

    #[test]
    fn split_starting_on_boundary_stays_right() {
        let g = fig2_grid();
        let r = Rect::new(4.0, 5.5, 1.0, 0.5);
        let cells: Vec<u32> = g.split_cells(&r).map(|c| c.paper_number()).collect();
        assert_eq!(cells, vec![7]);
    }

    #[test]
    fn membership_follows_the_routing_division_not_the_cell_corners() {
        // Side 3 over [0, 1000]: the row 0 / row 1 boundary computed by
        // multiplication (1000 - 1·333.33… = 666.666…7) is one ulp above
        // where the routing division puts a bottom edge at that value
        // (row 0). A membership test against `cell_rect` corners would
        // accept cell 5 (col 2, row 1); the rectangle is routed to cell 2
        // only.
        let g = Grid::square((0.0, 1000.0), (0.0, 1000.0), 3);
        let r = Rect::from_bounds(700.0, 666.666_666_666_666_7, 800.0, 900.0).unwrap();
        assert!(g.split_cells(&r).eq([CellId(2)]));
        assert!(g.splits_onto(&r, CellId(2)));
        assert!(!g.splits_onto(&r, CellId(5)));
        assert!(!g.rect_overlaps_cell(&r, CellId(5)));
    }

    #[test]
    fn rect_crosses_cell_detects_all_directions() {
        let g = fig2_grid();
        let c6 = CellId::from_paper_number(6);
        // Entirely inside cell 6.
        assert!(!g.rect_crosses_cell(&Rect::new(2.5, 5.5, 1.0, 1.0), c6));
        // Extends right into cell 7.
        assert!(g.rect_crosses_cell(&Rect::new(3.0, 5.0, 2.0, 1.0), c6));
        // Extends down into cell 10.
        assert!(g.rect_crosses_cell(&Rect::new(2.5, 5.0, 1.0, 2.0), c6));
        // Touches the right boundary: its edge lies in cell 7's region.
        assert!(g.rect_crosses_cell(&Rect::new(3.0, 5.0, 1.0, 1.0), c6));
    }

    #[test]
    fn fourth_quadrant_matches_figure2() {
        // Figure 2(a): r1 starts in cell 6; its 4th quadrant is cells 6-8,
        // 10-12, 14-16.
        let g = fig2_grid();
        let r1 = Rect::new(3.0, 5.5, 2.0, 1.0);
        assert_eq!(g.cell_of(&r1).paper_number(), 6);
        let cells: Vec<u32> = g
            .fourth_quadrant_cells(&r1)
            .map(|c| c.paper_number())
            .collect();
        assert_eq!(cells, vec![6, 7, 8, 10, 11, 12, 14, 15, 16]);
    }

    #[test]
    fn cell_distance_zero_when_overlapping() {
        let g = fig2_grid();
        let r = Rect::new(2.5, 5.5, 1.0, 1.0);
        assert_eq!(g.cell_distance(CellId::from_paper_number(6), &r), 0.0);
        assert!(g.cell_distance(CellId::from_paper_number(16), &r) > 0.0);
    }

    #[test]
    fn replicate_f2_limits_distance() {
        // Figure 2(c): replicate with f2 returns cells 6, 7, 10, 11 for a
        // suitable d — 4th-quadrant cells within a gap of d of r1 on each
        // axis.
        let g = fig2_grid();
        let r1 = Rect::new(3.0, 5.5, 2.0, 1.0);
        let d = 0.6; // reaches one cell right/down but not further
        let cells: Vec<u32> = g
            .fourth_quadrant_cells_within(&r1, d, d)
            .map(|c| c.paper_number())
            .collect();
        assert_eq!(cells, vec![6, 7, 10, 11]);
    }

    #[test]
    fn replicate_f2_stretches_each_axis_by_its_own_reach() {
        // r1 of Figure 2(c): a reach of 2.6 crosses two cell boundaries,
        // one of 0.6 a single one, on whichever axis it is given for.
        let g = fig2_grid();
        let r1 = Rect::new(3.0, 5.5, 2.0, 1.0);
        let cells = |dx, dy| -> Vec<u32> {
            (g.fourth_quadrant_cells_within(&r1, dx, dy))
                .map(|c| c.paper_number())
                .collect()
        };
        assert_eq!(cells(2.6, 0.6), vec![6, 7, 8, 10, 11, 12]);
        assert_eq!(cells(0.6, 2.6), vec![6, 7, 10, 11, 14, 15]);
    }

    #[test]
    fn other_cell_within_detects_neighbours() {
        let g = fig2_grid();
        let c6 = CellId::from_paper_number(6);
        // Rectangle in the middle of cell 6 (0.5 from every boundary).
        let r = Rect::new(2.5, 5.5, 1.0, 1.0);
        assert!(!g.other_cell_within(&r, c6, 0.4));
        assert!(g.other_cell_within(&r, c6, 0.5));
    }

    /// The grid shapes of the generated routing suites, over extents whose
    /// cell widths are not binary fractions; two do not start at 0.
    fn routing_grids() -> [Grid; 3] {
        [
            Grid::square((0.0, 1000.0), (0.0, 1000.0), 3),
            Grid::new((100.1, 1100.1), (-50.3, 949.7), 7, 5),
            Grid::square((3.3, 1003.4), (-949.1, 134.2), 8),
        ]
    }

    #[test]
    fn fourth_quadrant_cells_equal_the_recorded_quadrant_walk() {
        // The hashes were recorded from a walk over `col ≥ col(cell_of(r))`,
        // `row ≥ row(cell_of(r))`, which the split of the stretched `r`
        // replaced: every rectangle on each grid's half-cell lattice, and
        // the same nudged off it.
        let fnv = |h: u64, v: u32| (h ^ u64::from(v)).wrapping_mul(0x0100_0000_01b3);
        let mut hashes = Vec::new();
        for g in routing_grids() {
            let ((x0, xn), (y0, yn)) = (g.x_range(), g.y_range());
            let lattice = |lo: Coord, hi: Coord, cells: u32, nudge: Coord| {
                let half = (hi - lo) / Coord::from(cells) / 2.0;
                (0..=2 * cells)
                    .map(|k| (lo + (Coord::from(k) + nudge) * half).min(hi))
                    .collect::<Vec<_>>()
            };
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for nudge in [0.0, 0.37] {
                let (xs, ys) = (
                    lattice(x0, xn, g.cols(), nudge),
                    lattice(y0, yn, g.rows(), nudge),
                );
                for (i, &left) in xs.iter().enumerate() {
                    for &right in &xs[i..] {
                        for (j, &bottom) in ys.iter().enumerate() {
                            for &top in &ys[j..] {
                                let r = Rect::from_bounds(left, bottom, right, top).unwrap();
                                let f1 = g.fourth_quadrant_cells(&r);
                                h = fnv(h, f1.len() as u32);
                                h = f1.fold(h, |h, c| fnv(h, c.0));
                            }
                        }
                    }
                }
            }
            hashes.push(h);
        }
        assert_eq!(
            hashes,
            [
                0xae5e_bb69_9cf6_7494,
                0xa3ee_9e56_45c4_1303,
                0x39f5_f46c_17fd_68bf
            ],
            "{hashes:#x?}"
        );
    }

    #[test]
    fn enlarged_split_clamps_to_space() {
        // A rectangle in the top-left corner: enlargement leaves the space.
        let r = Rect::new(0.1, 7.9, 0.5, 0.5);
        let grid = fig2_grid();
        let cells: Vec<CellId> = grid.split_cells_enlarged(&r, 3.0).collect();
        assert!(!cells.is_empty());
        assert!(cells.iter().all(|c| c.0 < grid.num_cells()));
    }

    #[test]
    fn extent_is_the_constructed_range_whatever_the_origin() {
        // Re-derived as `x0 + (xn - x0)` and `yn - (yn - y0)`, both ends
        // of this range round to the inside of the space.
        let (lo, hi) = (-949.1, 134.2);
        let g = Grid::new((lo, hi), (lo, hi), 7, 5);
        let e = g.extent();
        assert_eq!((e.min_x(), e.max_x()), g.x_range());
        assert_eq!((e.min_y(), e.max_y()), g.y_range());
        for (min_x, min_y, max_x, max_y) in [
            (lo, -10.0, lo, 10.0),
            (hi, -10.0, hi, 10.0),
            (-10.0, lo, 10.0, lo),
            (-10.0, hi, 10.0, hi),
            (lo, lo, hi, hi),
        ] {
            let on_the_edge = Rect::from_bounds(min_x, min_y, max_x, max_y).unwrap();
            assert!(e.contains_rect(&on_the_edge), "{on_the_edge:?}");
            assert!(g.split_cells(&on_the_edge).next().is_some());
        }
    }

    fn arb_rect_in(extent: Coord) -> impl Strategy<Value = Rect> {
        (
            0.0..extent,
            0.0..extent,
            0.0..extent / 2.0,
            0.0..extent / 2.0,
        )
            .prop_map(move |(x, y, l, b)| {
                let l = l.min(extent - x);
                let b = b.min(y);
                Rect::new(x, y, l, b)
            })
    }

    proptest! {
        /// Truncating the quotient gives the index `floor` gave, for every
        /// `f64`: in the space, on a boundary and a float either side,
        /// negative, beyond the last cell, ±∞ and NaN.
        #[test]
        fn prop_truncated_index_is_the_floored_index(
            kind in 0u32..9,
            free in -1e3..1e3f64,
            k in 0u32..20,
            cells in 1u32..12,
        ) {
            let at = f64::from(k);
            let quotient = match kind {
                0 => free,
                1 => at,
                2 => at.next_down(),
                3 => at.next_up(),
                4 => -at - 0.5,
                5 => f64::INFINITY,
                6 => f64::NEG_INFINITY,
                7 => f64::NAN,
                _ => free * 1e300,
            };
            let floored = (quotient.floor() as i64).clamp(0, i64::from(cells) - 1) as u32;
            prop_assert_eq!(index_of(quotient, cells), floored, "{quotient}");
            let g = Grid::new((-3.7, 10.1), (2.2, 9.9), cells, cells);
            let x = (-3.7 + (free + 1e3) / 2e3 * 13.8).min(10.1);
            let floored = (((x + 3.7) / g.cell_w).floor() as i64).clamp(0, i64::from(cells) - 1);
            prop_assert_eq!(i64::from(g.col_of_x(x)), floored);
        }

        #[test]
        fn prop_cell_of_is_in_split_set(r in arb_rect_in(100.0)) {
            let g = Grid::square((0.0, 100.0), (0.0, 100.0), 8);
            let cu = g.cell_of(&r);
            prop_assert!(g.split_cells(&r).any(|c| c == cu));
        }

        #[test]
        fn prop_split_subset_of_fourth_quadrant(r in arb_rect_in(100.0)) {
            let g = Grid::square((0.0, 100.0), (0.0, 100.0), 8);
            let quad: Vec<CellId> = g.fourth_quadrant_cells(&r).collect();
            for c in g.split_cells(&r) {
                prop_assert!(quad.contains(&c), "split cell {c:?} outside 4th quadrant");
            }
        }

        #[test]
        fn prop_split_matches_overlap_scan(r in arb_rect_in(100.0)) {
            let g = Grid::square((0.0, 100.0), (0.0, 100.0), 8);
            let split: Vec<CellId> = g.split_cells(&r).collect();
            for c in g.cells() {
                prop_assert_eq!(split.contains(&c), g.rect_overlaps_cell(&r, c));
            }
        }

        /// Rectangles whose every edge is snapped to a half-cell multiple,
        /// on grids whose cell width is not a binary fraction: the case
        /// where corner arithmetic and index arithmetic part by one ulp.
        #[test]
        fn prop_membership_is_one_predicate_on_non_dyadic_grids(
            side in 0usize..5,
            a in 0u32..21,
            b in 0u32..21,
            c in 0u32..21,
            d in 0u32..21,
        ) {
            let side = [3u32, 5, 6, 7, 10][side];
            let g = Grid::square((0.0, 1000.0), (0.0, 1000.0), side);
            let half = 1000.0 / f64::from(side) / 2.0;
            let snap = |k: u32| (f64::from(k % (2 * side + 1)) * half).min(1000.0);
            let (x0, x1) = (snap(a).min(snap(b)), snap(a).max(snap(b)));
            let (y0, y1) = (snap(c).min(snap(d)), snap(c).max(snap(d)));
            let r = Rect::from_bounds(x0, y0, x1, y1).unwrap();
            let split: Vec<CellId> = g.split_cells(&r).collect();
            for cell in g.cells() {
                prop_assert_eq!(split.contains(&cell), g.splits_onto(&r, cell));
                prop_assert_eq!(split.contains(&cell), g.rect_overlaps_cell(&r, cell));
            }
            // The predicate is the point-to-cell map extended to a
            // rectangle: the cell of every corner is a member, and the
            // members are exactly the index rectangle the corners span.
            let top_left = g.cell_of_point(&Point::new(x0, y1));
            let bottom_right = g.cell_of_point(&Point::new(x1, y0));
            prop_assert_eq!(split.first(), Some(&top_left));
            prop_assert_eq!(split.last(), Some(&bottom_right));
            let cols = g.col_of(bottom_right) - g.col_of(top_left) + 1;
            let rows = g.row_of(bottom_right) - g.row_of(top_left) + 1;
            prop_assert_eq!(split.len() as u32, cols * rows);
        }

        #[test]
        fn prop_cell_regions_partition_points(x in 0.0..100.0f64, y in 0.0..100.0f64) {
            // Every point belongs to exactly one cell via cell_of_point, and
            // the zero-size rectangle at that point overlaps that cell.
            let g = Grid::square((0.0, 100.0), (0.0, 100.0), 8);
            let cell = g.cell_of_point(&Point::new(x, y));
            let degenerate = Rect::new(x, y, 0.0, 0.0);
            prop_assert!(g.rect_overlaps_cell(&degenerate, cell));
        }

        /// `f2(r, d)` is every cell of `f1(r)` whose region lies within a
        /// gap of `d` of `r` on each axis, decided by the membership
        /// predicate on the stretched rectangle; `d = 0` is the split, a
        /// `d` across the space is `f1`.
        #[test]
        fn prop_f2_subset_of_f1_and_distance_bound(
            which in 0usize..3,
            lattice in (0u32..1000, 0u32..1000, 0u32..1000, 0u32..1000),
            free in (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64),
            d_half_cells in 0u32..8,
            d_free in 0.0..1.0f64,
        ) {
            let g = &routing_grids()[which];
            let ((x0, xn), (y0, yn)) = (g.x_range(), g.y_range());
            // An edge sits on the half-cell lattice three times in four.
            let edge = |k: u32, f: f64, lo: Coord, hi: Coord, cells: u32| {
                let half = (hi - lo) / Coord::from(cells) / 2.0;
                let at = match k % 4 {
                    0 => lo + f * (hi - lo),
                    _ => lo + Coord::from((k / 4) % (2 * cells + 1)) * half,
                };
                at.clamp(lo, hi)
            };
            let xa = edge(lattice.0, free.0, x0, xn, g.cols());
            let xb = edge(lattice.1, free.1, x0, xn, g.cols());
            let ya = edge(lattice.2, free.2, y0, yn, g.rows());
            let yb = edge(lattice.3, free.3, y0, yn, g.rows());
            let r = Rect::from_bounds(xa.min(xb), ya.min(yb), xa.max(xb), ya.max(yb)).unwrap();
            // The gap: a whole number of half cell widths, or anything.
            let d = if d_half_cells > 0 {
                Coord::from(d_half_cells) * (xn - x0) / Coord::from(g.cols()) / 2.0
            } else {
                d_free * (xn - x0)
            };

            let f1: Vec<CellId> = g.fourth_quadrant_cells(&r).collect();
            let f2: Vec<CellId> = g.fourth_quadrant_cells_within(&r, d, d).collect();
            let stretched = Rect::from_bounds(
                r.min_x(),
                (r.min_y() - d).max(y0),
                (r.max_x() + d).min(xn),
                r.max_y(),
            )
            .unwrap();
            let expect: Vec<CellId> = f1
                .iter()
                .copied()
                .filter(|&c| g.splits_onto(&stretched, c))
                .collect();
            prop_assert_eq!(&f2, &expect);
            prop_assert!(g.fourth_quadrant_cells_within(&r, 0.0, 0.0).eq(g.split_cells(&r)));
            let unbounded = Coord::INFINITY;
            prop_assert!(g.fourth_quadrant_cells_within(&r, unbounded, unbounded).eq(f1.iter().copied()));
            let across = (xn - x0) + (yn - y0);
            prop_assert!(g.fourth_quadrant_cells_within(&r, across, across).eq(f1.iter().copied()));

            // What the index span means in coordinates, away from the one
            // ulp by which cell corners part from the routing division.
            let tol = 1e-9 * across;
            for &c in &f1 {
                let corner = g.cell_rect(c);
                let gap_x = (corner.min_x() - r.max_x()).max(0.0);
                let gap_y = (r.min_y() - corner.max_y()).max(0.0);
                if f2.contains(&c) {
                    prop_assert!(gap_x <= d + tol && gap_y <= d + tol, "{c:?} beyond {d}");
                } else {
                    prop_assert!(gap_x > d - tol || gap_y > d - tol, "{c:?} within {d}");
                }
            }
        }

        #[test]
        fn prop_crossing_iff_split_count(r in arb_rect_in(100.0)) {
            let g = Grid::square((0.0, 100.0), (0.0, 100.0), 8);
            let cu = g.cell_of(&r);
            let split: Vec<CellId> = g.split_cells(&r).collect();
            // The rectangle crosses its own cell iff it overlaps another cell.
            prop_assert_eq!(g.rect_crosses_cell(&r, cu), split.len() > 1);
        }

        #[test]
        fn prop_other_cell_within_matches_scan(r in arb_rect_in(100.0), d in 0.0..40.0f64) {
            let g = Grid::square((0.0, 100.0), (0.0, 100.0), 8);
            let cu = g.cell_of(&r);
            let expect = g.cells().any(|c| c != cu && g.cell_distance(c, &r) <= d);
            prop_assert_eq!(g.other_cell_within(&r, cu, d), expect);
        }
    }
}
