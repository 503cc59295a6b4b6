//! The shuffle-free map-side join over stored datasets.
//!
//! When every relation was ingested with the *same* grid the cluster
//! partitions on, the expensive half of every shuffle algorithm — map,
//! sort, shuffle, merge — is already done and sitting on disk: each cell
//! holds an STR-packed R-tree over exactly the rectangles homed there.
//! This module turns each grid cell into one reducer group straight from
//! those trees and joins it with the reducers' own [`JoinKernel`], one
//! logical task per cell, no engine job at all.
//!
//! A run registers with the cluster's [`SlotScheduler`] like any engine
//! job and a seed cell holds one slot while it runs, so shuffle and
//! map-side joins share one bound on concurrent tasks. The caller is the
//! first worker and starts a helper per *other* slot free at that moment:
//! a lone run gets the pool, a run beside others brings no thread.
//!
//! # One gathered group per seed cell
//!
//! The join picks one *start* relation (the smallest). A cell's group
//! holds the start rectangles homed there and, for each later step of the
//! start relation's [`JoinPlan`] — bind `w` from `from` at distance `d` —
//! every stored rectangle of `w` within `d` of the MBR of the `from`
//! rectangles gathered so far: one window query per candidate cell tree
//! (each tree's root MBR prunes a cell in one comparison) instead of one
//! walk per rectangle. The window over-approximates — whatever lies within
//! `d` of a `from` rectangle lies within `d` of their MBR — so by
//! induction along the plan the group holds every member of every tuple
//! seeded in the cell, and the kernel's swept pair lists
//! ([`GroupIndex::pairs`], a forward semi-join from the seeds) decide the
//! exact pairs.
//!
//! # Exactly-once enumeration
//!
//! The shuffle algorithms replicate rectangles so every candidate tuple
//! *meets* somewhere, then keep one copy via the designated-cell rule.
//! Stored datasets need neither: each rectangle is stored exactly once at
//! its home cell, so a group's start relation is the cell's alone and no
//! rectangle enters a group twice. Every output tuple contains exactly one
//! start-relation member, which is homed at exactly one cell — so every
//! tuple is enumerated exactly once globally, with no duplicate filtering.
//!
//! The designated-cell rule still matters for *accounting*: tuples are
//! attributed to their §6.2 duplicate-avoidance cell, so the per-cell
//! logical counters (groups, max partition load) mean the same thing they
//! mean for the shuffle algorithms and the equivalence goldens can pin
//! them byte-for-byte.

use std::sync::atomic::{AtomicUsize, Ordering};

use mwsj_geom::{Coord, Rect};
use mwsj_local::dedup::multiway_tuple_cell_of;
use mwsj_local::{GroupIndex, JoinKernel, LocalRect};
use mwsj_mapreduce::{JobError, JobErrorKind, Phase, SlotScheduler};
use mwsj_query::{JoinPlan, Query, RelationId};
use mwsj_rtree::PackedRTree;
use mwsj_store::StoredDataset;

use super::{tuple_ids, AlgoCtx};
use crate::shards::ShardPartial;
use crate::JoinError;

/// Runs the map-side join, seeding only from cells in `seed_range`
/// (`None` seeds from every cell). Gathering always reads the whole
/// forest — the scope restricts which tuples are *enumerated*, not
/// which rectangles participate, so disjoint seed ranges partition the
/// output exactly. [`crate::shards::gather`] finalizes one or several
/// of these partials into a [`crate::JoinOutput`]. Of the context it
/// reads only the grid, `count_only`, the cancel token and, for its
/// slots, the engine's scheduler with the run's priority and share.
pub(crate) fn execute(
    ctx: &AlgoCtx<'_>,
    query: &Query,
    stores: &[&StoredDataset],
    seed_range: Option<std::ops::Range<u32>>,
) -> Result<ShardPartial, JoinError> {
    let grid = ctx.grid;
    let num_cells = grid.num_cells() as usize;
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

    // Validate every cell tree once up front; gathers borrow these views.
    let forests: Vec<Vec<PackedRTree<'_>>> = stores
        .iter()
        .map(|s| grid.cells().map(|c| s.cell_tree(c)).collect())
        .collect();

    // Per-relation root MBRs, `None` for empty cells: a gather checks
    // these first, so most trees in the candidate cell span are rejected
    // without a traversal call at all.
    let mbrs: Vec<Vec<Option<Rect>>> = forests
        .iter()
        .map(|trees| trees.iter().map(PackedRTree::root_mbr).collect())
        .collect();

    // Per-relation reach: a stored rectangle's body extends right by at
    // most `max_l` and down by at most `max_b` from its home (start)
    // point, and no rectangle is longer or taller than its tree's root
    // MBR — a bound read off the cells, not the records (it is a one-sided
    // filter, so a bound serves as well as the maximum). A gather
    // therefore only needs the cell trees whose cells can contain the home
    // point of a qualifying rectangle — a handful of cells instead of the
    // whole forest.
    let reach: Vec<(Coord, Coord)> = mbrs
        .iter()
        .map(|cells| {
            let extents = cells.iter().flatten();
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
    // absorb floating-point rounding; each tree's root MBR exactly
    // re-filters.
    let gather = |w: usize, window: &Rect, d: Coord, stack: &mut Vec<u32>, out: &mut Vec<_>| {
        let (max_l, max_b) = reach[w];
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
                let idx = (row * cols + col) as usize;
                if mbrs[w][idx].is_some_and(|m| m.within_distance(window, d)) {
                    forests[w][idx]
                        .query_within_scratch(window, d, stack, |r, id| out.push((r, id)));
                }
            }
        }
    };

    let kernel = JoinKernel::new(query);
    let in_scope = |c: usize| {
        seed_range
            .as_ref()
            .is_none_or(|r| (c as u64) >= u64::from(r.start) && (c as u64) < u64::from(r.end))
    };
    let cells: Vec<usize> = (0..num_cells)
        .filter(|&c| in_scope(c) && !forests[start][c].is_empty())
        .collect();
    let scheduler = ctx.engine.scheduler();
    let job = ctx.engine.next_job_id();
    let _registration = scheduler.register(job, ctx.priority, ctx.share);
    let workers = scheduler.available().min(cells.len()).max(1);

    // One worker's share of the cell queue: its tuples and its tally by
    // designated cell. The group's vectors are reused from cell to cell.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut out: Vec<Vec<u32>> = Vec::new();
        let mut tally: Vec<u64> = vec![0; num_cells];
        let mut stack: Vec<u32> = Vec::new();
        let mut relations: Vec<Vec<LocalRect>> = vec![Vec::new(); stores.len()];
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&cell) = cells.get(i) else { break };
            if ctx.cancel.is_cancelled() {
                break;
            }
            scheduler.acquire(job);
            let _slot = HeldSlot(scheduler, job);
            relations.iter_mut().for_each(Vec::clear);
            relations[start].extend(forests[start][cell].iter());
            for step in &plan.steps()[1..] {
                let edge = step.probe.as_ref().expect("non-root steps have a probe");
                let (from, w) = (edge.from.index(), step.relation.index());
                let bound = relations[from].iter().map(|(r, _)| *r);
                // Nothing to bind from: the cell has no tuple.
                let Some(window) = bound.reduce(|a, b| a.union(&b)) else {
                    break;
                };
                let d = edge.predicate.distance();
                gather(w, &window, d, &mut stack, &mut relations[w]);
            }
            kernel.execute_on(&GroupIndex::new(&relations), |tuple| {
                let dc = multiway_tuple_cell_of(grid, tuple.iter().map(|(r, _)| r));
                tally[dc.0 as usize] += 1;
                if !count_only {
                    out.push(tuple_ids(tuple));
                }
            });
        }
        (out, tally)
    };
    // The caller takes a share too: `workers - 1` threads are spawned, and
    // a worker that panicked is resumed with its own payload.
    let (tuples, tally) = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let (mut tuples, mut tally) = work();
        for handle in spawned {
            let (out, t) = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            tuples.extend(out);
            for (total, part) in tally.iter_mut().zip(t) {
                *total += part;
            }
        }
        (tuples, tally)
    });

    if ctx.cancel.is_cancelled() {
        return Err(JoinError::Job(JobError {
            job: "map-side".to_string(),
            phase: Phase::Reduce,
            task: 0,
            attempts: 1,
            kind: JobErrorKind::Cancelled {
                deadline_exceeded: ctx.cancel.cancelled_by_deadline(),
            },
        }));
    }
    Ok(ShardPartial { tuples, tally })
}

/// The slot one seed cell holds, returned on every path out of the cell.
struct HeldSlot<'a>(&'a SlotScheduler, u64);

impl Drop for HeldSlot<'_> {
    fn drop(&mut self) {
        self.0.release(self.1);
    }
}
