use mwsj_geom::{Coord, Rect};
use serde::{Deserialize, Serialize};

use crate::{CellId, Grid};

/// An intermediate key-value pair: the key is the partition-cell (routing the
/// value to one reducer), the value is the payload (typically a rectangle
/// with provenance). The number of such pairs is the paper's communication
/// cost metric.
pub type KvPair<V> = (CellId, V);

/// The transform operations of §4, each mapping a rectangle to the set of
/// cells (reducers) it must be communicated to.
///
/// * `Project` — the single cell containing the start point;
/// * `Split` — every cell sharing a point with the rectangle;
/// * `ReplicateF1` — every cell in the 4th quadrant w.r.t. the rectangle
///   (function `f1`);
/// * `ReplicateF2 { d }` — 4th-quadrant cells within a gap of `d` of the
///   rectangle on each axis (function `f2`, used by *C-Rep-L*);
/// * `SplitEnlarged { d }` — every cell overlapping the rectangle enlarged by
///   `d` units (the 2-way range-join routing of §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Transform {
    /// Send to the cell of the rectangle's start point.
    Project,
    /// Send to every cell the rectangle overlaps.
    Split,
    /// Send to every 4th-quadrant cell (replication function `f1`).
    ReplicateF1,
    /// Send to every 4th-quadrant cell whose region is within a gap of `d`
    /// of the rectangle on each axis (function `f2`): the split of the
    /// rectangle stretched by `d` to the right and downward.
    ReplicateF2 {
        /// Maximum gap, on each axis, between the rectangle and a cell.
        d: Coord,
    },
    /// Send to every cell overlapping the rectangle enlarged by `d`.
    SplitEnlarged {
        /// Enlargement distance.
        d: Coord,
    },
}

impl Transform {
    /// The cells a rectangle is communicated to under this transform.
    #[must_use]
    pub fn target_cells(&self, r: &Rect, grid: &Grid) -> Vec<CellId> {
        match *self {
            Transform::Project => vec![grid.cell_of(r)],
            Transform::Split => grid.split_cells(r),
            Transform::ReplicateF1 => grid.fourth_quadrant_cells(r),
            Transform::ReplicateF2 { d } => grid.fourth_quadrant_cells_within(r, d),
            Transform::SplitEnlarged { d } => grid.split_cells_enlarged(r, d),
        }
    }

    /// Applies the transform to a rectangle, emitting one key-value pair per
    /// target cell via `emit`.
    pub fn apply<V: Clone>(
        &self,
        r: &Rect,
        value: &V,
        grid: &Grid,
        mut emit: impl FnMut(KvPair<V>),
    ) {
        for cell in self.target_cells(r, grid) {
            emit((cell, value.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 2(a)/(c) of the paper: 4×4 grid over [0, 8]², rectangle r1
    /// starting in cell 6 and extending into cell 7.
    fn fig2() -> (Grid, Rect) {
        let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 4);
        let r1 = Rect::new(3.0, 5.5, 1.5, 1.0);
        (grid, r1)
    }

    fn numbers(cells: &[CellId]) -> Vec<u32> {
        cells.iter().map(|c| c.paper_number()).collect()
    }

    #[test]
    fn figure2_project() {
        let (grid, r1) = fig2();
        assert_eq!(
            numbers(&Transform::Project.target_cells(&r1, &grid)),
            vec![6]
        );
    }

    #[test]
    fn figure2_split() {
        let (grid, r1) = fig2();
        assert_eq!(
            numbers(&Transform::Split.target_cells(&r1, &grid)),
            vec![6, 7]
        );
    }

    #[test]
    fn figure2_replicate_f1() {
        let (grid, r1) = fig2();
        assert_eq!(
            numbers(&Transform::ReplicateF1.target_cells(&r1, &grid)),
            vec![6, 7, 8, 10, 11, 12, 14, 15, 16]
        );
    }

    #[test]
    fn figure2_replicate_f2() {
        let (grid, r1) = fig2();
        // With d reaching one cell over, f2 returns cells 6, 7, 10, 11 as in
        // Figure 2(c).
        let cells = Transform::ReplicateF2 { d: 0.5 }.target_cells(&r1, &grid);
        assert_eq!(numbers(&cells), vec![6, 7, 10, 11]);
    }

    #[test]
    fn figure2b_split_enlarged() {
        // Figure 2(b): r1 enlarged by d overlaps cells 2-4, 6-8 and 10-12.
        let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 4);
        let r1 = Rect::new(3.0, 5.5, 2.5, 1.0);
        let d = 1.0; // pushes the enlarged rect into rows 0 and 2, columns 1-3
        let cells = Transform::SplitEnlarged { d }.target_cells(&r1, &grid);
        assert_eq!(numbers(&cells), vec![2, 3, 4, 6, 7, 8, 10, 11, 12]);
    }

    #[test]
    fn enlarged_split_clamps_to_space() {
        let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 4);
        // A rectangle in the top-left corner: enlargement leaves the space.
        let r = Rect::new(0.1, 7.9, 0.5, 0.5);
        let cells = Transform::SplitEnlarged { d: 3.0 }.target_cells(&r, &grid);
        assert!(!cells.is_empty());
        assert!(cells.iter().all(|c| c.0 < grid.num_cells()));
    }

    #[test]
    fn apply_emits_one_pair_per_cell() {
        let (grid, r1) = fig2();
        let mut pairs = Vec::new();
        Transform::Split.apply(&r1, &"payload", &grid, |kv| pairs.push(kv));
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0.paper_number(), 6);
        assert_eq!(pairs[1].0.paper_number(), 7);
    }
}
