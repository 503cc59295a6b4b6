//! The three transforms of §4 — project, split and replicate — walked
//! through Figure 2 of the paper on the [`Grid`](crate::Grid) methods the
//! join algorithms route by.

#[cfg(test)]
mod tests {
    use mwsj_geom::Rect;

    use crate::{CellId, Grid};

    /// Figure 2(a)/(c) of the paper: 4×4 grid over [0, 8]², rectangle r1
    /// starting in cell 6 and extending into cell 7.
    fn fig2() -> (Grid, Rect) {
        let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 4);
        let r1 = Rect::new(3.0, 5.5, 1.5, 1.0);
        (grid, r1)
    }

    fn numbers(cells: impl IntoIterator<Item = CellId>) -> Vec<u32> {
        cells.into_iter().map(CellId::paper_number).collect()
    }

    #[test]
    fn figure2_project() {
        let (grid, r1) = fig2();
        assert_eq!(numbers([grid.cell_of(&r1)]), vec![6]);
    }

    #[test]
    fn figure2_split() {
        let (grid, r1) = fig2();
        assert_eq!(numbers(grid.split_cells(&r1)), vec![6, 7]);
    }

    #[test]
    fn figure2_replicate_f1() {
        let (grid, r1) = fig2();
        assert_eq!(
            numbers(grid.fourth_quadrant_cells(&r1)),
            vec![6, 7, 8, 10, 11, 12, 14, 15, 16]
        );
    }

    #[test]
    fn figure2_replicate_f2() {
        let (grid, r1) = fig2();
        // With d reaching one cell over, f2 returns cells 6, 7, 10, 11 as in
        // Figure 2(c).
        let cells = grid.fourth_quadrant_cells_within(&r1, 0.5, 0.5);
        assert_eq!(numbers(cells), vec![6, 7, 10, 11]);
    }
}
