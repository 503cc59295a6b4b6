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
//! extent prunes the cell in one comparison, a binary search cuts its run
//! at the window's x-reach, and [`Rect::bounds_within`] accepts each record
//! before the cut) instead of one probe per rectangle. The window
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
//! them byte-for-byte.

use mwsj_geom::{Coord, Rect};
use mwsj_local::dedup::multiway_tuple_cell_of;
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

    // Per-relation reach: a stored rectangle's body extends right by at
    // most `max_l` and down by at most `max_b` from its home (start)
    // point, and no rectangle is longer or taller than its cell's extent —
    // a bound read off the cells, not the records (it is a one-sided
    // filter, so a bound serves as well as the maximum). A gather
    // therefore only needs the cells that can contain the home point of a
    // qualifying rectangle — a handful instead of the whole grid.
    let extent_reach: Vec<(Coord, Coord)> = stores
        .iter()
        .map(|s| {
            let extents = grid.cells().filter_map(|c| s.cell_extent(c));
            extents.fold((0.0, 0.0), |(l, b), e| (e.l().max(l), e.b().max(b)))
        })
        .collect();
    let (x0, xn) = grid.x_range();
    let (y0, yn) = grid.y_range();
    let (cols, rows) = (grid.cols(), grid.rows());

    // Appends every stored rectangle of relation `w` within `d` of
    // `window`. Home points of such rectangles lie in the window grown by
    // `d`, plus the relation's reach to the left/top (bodies extend
    // right/down from the home point). The span is widened by one cell to
    // absorb floating-point rounding; each cell's extent exactly
    // re-filters. A run is cut where `min_x` passes the window's x-reach,
    // widened like the reducer sweep's (a one-sided cut: the exact test
    // decides every record before it). A cell's stored extent (`None` when
    // empty) is checked first, so most cells in the span are rejected
    // without reading their runs.
    let gather = |w: usize, window: &Rect, d: Coord, out: &mut Vec<LocalRect>| {
        let (max_l, max_b) = extent_reach[w];
        let (limit, d_sq) = (reach(window.max_x(), d), d * d);
        let c0 = grid
            .col_of_x((window.min_x() - d - max_l).clamp(x0, xn))
            .saturating_sub(1);
        let c1 = (grid.col_of_x((window.max_x() + d).clamp(x0, xn)) + 1).min(cols - 1);
        let r0 = grid
            .row_of_y((window.max_y() + d + max_b).clamp(y0, yn))
            .saturating_sub(1);
        let r1 = (grid.row_of_y((window.min_y() - d).clamp(y0, yn)) + 1).min(rows - 1);
        for row in r0..=r1 {
            for col in c0..=c1 {
                let cell = CellId(row * cols + col);
                let extent = stores[w].cell_extent(cell);
                if extent.is_some_and(|m| m.within_distance(window, d)) {
                    let (rects, ids) = stores[w].cell(cell);
                    let cut = rects.partition_point(|r| r.min_x() <= limit);
                    let near = rects[..cut].iter().copied().zip(ids.iter().copied());
                    out.extend(near.filter(|(r, _)| window.bounds_within(r.bounds(), d_sq)));
                }
            }
        }
    };

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
        let mut relations: Vec<Vec<LocalRect>> = vec![Vec::new(); stores.len()];
        let (rects, ids) = stores[start].cell(CellId(cells[i]));
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
            gather(w, &window, d, &mut relations[w]);
        }
        kernel.execute_on(&GroupIndex::new(&relations), |tuple| {
            let dc = multiway_tuple_cell_of(grid, tuple.iter().map(|(r, _)| r));
            out.tally[dc.0 as usize] += 1;
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
