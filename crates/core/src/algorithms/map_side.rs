//! The shuffle-free map-side join over stored datasets.
//!
//! When every relation was ingested with the *same* grid the cluster
//! partitions on, the expensive half of every shuffle algorithm — map,
//! sort, shuffle, merge — is already done and sitting on disk: each cell
//! holds exactly the rectangles homed there, as one run in ascending
//! `min_x`. This module turns each grid cell into one reducer group
//! straight from those runs and joins it with the reducers' own
//! [`JoinKernel`], one task per seed cell.
//!
//! The cells are the tasks of one map-only engine job, `map-side`
//! ([`Engine::run_tasks`](mwsj_mapreduce::Engine::run_tasks)): a cell holds
//! a slot of the engine's shared pool, so shuffle and map-side joins share
//! one bound on concurrent tasks, and a lone run gets the pool while a run
//! beside others brings no thread. Each worker fills a [`ShardPartial`] of
//! its own; the driver returns them to be merged. A cell is not an
//! attempt: nothing is injected into it or retried.
//!
//! # One gathered group per seed cell
//!
//! The join picks one *start* relation (the smallest). A cell's group
//! holds the start rectangles homed there and, for each later step of the
//! start relation's [`JoinPlan`] — bind `w` from `from` at distance `d` —
//! every stored rectangle of `w` within `d` of the MBR of the `from`
//! rectangles gathered so far: one window per candidate cell (its stored
//! extent prunes the cell in one comparison, two binary searches cut its
//! run to the window's x-reach on either side, and [`Rect::bounds_within`]
//! accepts each record between the cuts) instead of one probe per
//! rectangle. The window
//! over-approximates — whatever lies within `d` of a `from` rectangle
//! lies within `d` of their MBR — so by induction along the plan the
//! group holds every member of every tuple seeded in the cell, and the
//! kernel's swept pair lists
//! ([`GroupIndex::pairs`], a forward semi-join from the seeds) decide the
//! exact pairs.
//!
//! # Exactly-once enumeration
//!
//! The shuffle algorithms replicate rectangles so every candidate tuple
//! *meets* somewhere, then keep one copy via the designated-cell rule.
//! Stored datasets need neither: each rectangle is stored exactly once, at
//! its home cell (the store's opener checks both), so a group's start
//! relation is the cell's alone and no rectangle enters a group twice.
//! Every output tuple contains exactly one start-relation member, which is
//! homed at exactly one cell — so every tuple is enumerated exactly once
//! globally, with no duplicate filtering.
//!
//! The designated-cell rule still matters for *accounting*: tuples are
//! attributed to their §6.2 duplicate-avoidance cell, so the per-cell
//! logical counters (groups, max partition load) mean the same thing they
//! mean for the shuffle algorithms and the equivalence goldens can pin
//! them byte-for-byte. The cell starts from the layout instead of a
//! division: the start member is homed at the seed cell and the grid's
//! point-to-index maps are monotone, so the tuple's cell lies in the
//! seed's column unless its largest start x reaches the next column,
//! and in the seed's row unless its smallest start y reaches the next
//! row — two comparisons against bounds computed once per seed cell.
//! Only a tuple that crosses one is placed by
//! [`multiway_tuple_cell_of`](mwsj_local::dedup::multiway_tuple_cell_of)'s
//! division.

use mwsj_geom::{Coord, Rect};
use mwsj_local::index::reach;
use mwsj_local::{GroupIndex, JoinKernel, LocalRect};
use mwsj_partition::CellId;
use mwsj_query::{JoinPlan, Query, RelationId};
use mwsj_store::StoredDataset;

use super::AlgoCtx;
use crate::shards::ShardPartial;
use crate::JoinError;

/// Runs the map-side join, seeding only from cells in `seed_range`
/// (`None` seeds from every cell). Gathering always reads every cell —
/// the scope restricts which tuples are *enumerated*, not which
/// rectangles participate, so disjoint seed ranges partition the output
/// exactly. [`crate::shards::gather`] finalizes one or several
/// of these partials into a [`crate::JoinOutput`]. Of the context it
/// reads the grid, `count_only` and, for its job, the engine and the
/// run's trace sink, cancel token, priority and share.
pub(crate) fn execute(
    ctx: &AlgoCtx<'_>,
    query: &Query,
    stores: &[&StoredDataset],
    seed_range: Option<std::ops::Range<u32>>,
) -> Result<ShardPartial, JoinError> {
    let grid = ctx.grid;
    let count_only = ctx.count_only;

    // The start relation: smallest cardinality, first on a tie. Every
    // tuple has exactly one member from it, so seeding from it enumerates
    // each tuple exactly once; picking the smallest minimizes seed count.
    let start = stores
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| s.record_count())
        .map(|(i, _)| i)
        .expect("queries bind at least one relation");
    let plan = JoinPlan::compile(query, RelationId(start as u16));

    let kernel = JoinKernel::new(query);
    let cells: Vec<u32> = (0..grid.num_cells())
        .filter(|c| seed_range.as_ref().is_none_or(|r| r.contains(c)))
        .filter(|&c| stores[start].cell_extent(CellId(c)).is_some())
        .collect();
    // One worker's share of the cell queue: its tuples' ids, row-major in
    // one buffer, and its tally by designated cell. The group's vectors
    // live for one cell and die on the worker's thread: kept in the state
    // the driver hands to the caller, they raised the peak RSS.
    let init = || ShardPartial {
        ids: Vec::new(),
        arity: stores.len(),
        tally: vec![0; grid.num_cells() as usize],
    };
    let join_cell = |out: &mut ShardPartial, i: usize| {
        let seed = CellId(cells[i]);
        let mut relations: Vec<Vec<LocalRect>> = vec![Vec::new(); stores.len()];
        let (rects, ids) = stores[start].cell(seed);
        relations[start].extend(rects.iter().copied().zip(ids.iter().copied()));
        for step in &plan.steps()[1..] {
            let edge = step.probe.as_ref().expect("non-root steps have a probe");
            let (from, w) = (edge.from.index(), step.relation.index());
            let bound = relations[from].iter().map(|(r, _)| *r);
            // Nothing to bind from: the cell has no tuple.
            let Some(window) = bound.reduce(|a, b| a.union(&b)) else {
                break;
            };
            let d = edge.predicate.distance();
            gather(stores[w], &window, d, &mut relations[w]);
        }
        // The tuple's §6.2 cell holds `(max start x, min start y)` over its
        // members. `col_of_x` rises with x and `row_of_y` with falling y,
        // and the start member is homed at the seed: the tuple's column is
        // the seed's until its x reaches the next column's first, and its
        // row the seed's until its y falls to the next row's top.
        let (col, row) = (grid.col_of(seed), grid.row_of(seed));
        let right = if col + 1 < grid.cols() {
            grid.col_start_x(col + 1)
        } else {
            Coord::INFINITY
        };
        let below = if row + 1 < grid.rows() {
            grid.row_start_y(row + 1)
        } else {
            Coord::NEG_INFINITY
        };
        kernel.execute_on(&GroupIndex::new(&relations), |tuple| {
            let (x, y) = (tuple.iter())
                .fold((Coord::NEG_INFINITY, Coord::INFINITY), |(x, y), (r, _)| {
                    (x.max(r.min_x()), y.min(r.max_y()))
                });
            let col = if x < right { col } else { grid.col_of_x(x) };
            let row = if y > below { row } else { grid.row_of_y(y) };
            out.tally[grid.cell_at(col, row).0 as usize] += 1;
            if !count_only {
                out.ids.extend(tuple.iter().map(|&(_, id)| id));
            }
        });
    };
    let workers = ctx
        .engine
        .run_tasks(ctx.spec("map-side"), cells.len(), init, join_cell)?;
    Ok(ShardPartial::merge(workers))
}

/// Appends to `out` every record of `store` within `d` of `window`.
///
/// A body extends right and down from its start point by at most the
/// store's [`StoredDataset::max_sides`], so the start points of such
/// records lie in the window grown by `d`, plus those sides to the left
/// and top: a handful of cells instead of the whole grid. The span is
/// widened by one cell to absorb floating-point rounding; a cell's stored
/// extent, checked first, rejects most cells in it without reading their
/// runs. A run is `min_x`-sorted, so two binary searches cut it: on the
/// right where `min_x` passes the window's x-reach, widened like the
/// reducer sweep's, and on the left where it falls short of the window's
/// `min_x − d` less the longest body, widened the same way. Both cuts are
/// one-sided; the exact test decides every record between them.
fn gather(store: &StoredDataset, window: &Rect, d: Coord, out: &mut Vec<LocalRect>) {
    let grid = store.grid();
    let (max_l, max_b) = store.max_sides();
    let (x0, xn) = grid.x_range();
    let (y0, yn) = grid.y_range();
    let (right, d_sq) = (reach(window.max_x(), d), d * d);
    // `reach` mirrored: `min_x − (d + max_l)`, widened downward.
    let left = -reach(-window.min_x(), d + max_l);
    let c0 = grid
        .col_of_x((window.min_x() - d - max_l).clamp(x0, xn))
        .saturating_sub(1);
    let c1 = (grid.col_of_x((window.max_x() + d).clamp(x0, xn)) + 1).min(grid.cols() - 1);
    let r0 = grid
        .row_of_y((window.max_y() + d + max_b).clamp(y0, yn))
        .saturating_sub(1);
    let r1 = (grid.row_of_y((window.min_y() - d).clamp(y0, yn)) + 1).min(grid.rows() - 1);
    for row in r0..=r1 {
        for col in c0..=c1 {
            let cell = grid.cell_at(col, row);
            if store
                .cell_extent(cell)
                .is_some_and(|m| m.within_distance(window, d))
            {
                let (rects, ids) = store.cell(cell);
                let to = rects.partition_point(|r| r.min_x() <= right);
                let from = rects[..to].partition_point(|r| r.min_x() < left);
                let near = (rects[from..to].iter().copied()).zip(ids[from..to].iter().copied());
                out.extend(near.filter(|(r, _)| window.bounds_within(r.bounds(), d_sq)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_partition::Grid;
    use mwsj_store::StoreBuilder;

    /// `n` rectangles of sides up to `side` spread over `grid` by an LCG.
    fn spread(grid: &Grid, n: usize, side: f64) -> Vec<Rect> {
        let ((x0, xn), (y0, yn)) = (grid.x_range(), grid.y_range());
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let (x, y) = (x0 + next() * (xn - x0), y0 + next() * (yn - y0));
                let (l, b) = (next() * side, next() * side);
                Rect::from_bounds(x, (y - b).max(y0), (x + l).min(xn), y).unwrap()
            })
            .collect()
    }

    /// The gather keeps exactly the records within `d` of the window:
    /// among them one that ends `d` left of the
    /// window and is the longest body, so its `min_x` is where the run's
    /// left cut falls before widening.
    #[test]
    fn gather_keeps_a_record_ending_d_left_of_the_window() {
        let cases = [
            (
                Grid::square((0.0, 100.0), (0.0, 100.0), 10),
                55.0,
                5.0,
                30.0,
            ),
            (Grid::square((0.0, 1.0), (0.0, 1.0), 7), 0.7, 0.1, 0.3),
            (Grid::new((-0.3, 0.7), (0.1, 1.0), 7, 3), 0.3, 0.0, 0.2),
        ];
        for (grid, min_x, d, long) in cases {
            let window = Rect::from_bounds(min_x, 0.5, min_x + 0.05, 0.6).unwrap();
            let end = window.min_x() - d;
            let mut rects = vec![Rect::from_bounds(end - long, 0.52, end, 0.55).unwrap()];
            rects.extend(spread(&grid, 400, long / 2.0));
            let bytes = StoreBuilder::new(&grid).build(&rects).unwrap();
            let store = StoredDataset::from_bytes(&bytes).unwrap();
            assert_eq!(store.max_sides().0, rects[0].l(), "the longest body");
            let mut out = Vec::new();
            gather(&store, &window, d, &mut out);
            let mut got: Vec<u32> = out.iter().map(|&(_, id)| id).collect();
            got.sort_unstable();
            let want: Vec<u32> = (0..rects.len() as u32)
                .filter(|&i| window.within_distance(&rects[i as usize], d))
                .collect();
            assert!(got.contains(&0), "the record ending d left of {window:?}");
            assert_eq!(got, want);
        }
    }
}
