//! The shuffle-free map-side join over stored datasets.
//!
//! When every relation was ingested with the *same* grid the cluster
//! partitions on, the expensive half of every shuffle algorithm — map,
//! sort, shuffle, merge — is already done and sitting on disk: each cell
//! holds an STR-packed R-tree over exactly the rectangles homed there.
//! This module joins directly over those trees with the precompiled
//! [`JoinKernel`], one logical task per grid cell, no engine job at all.
//!
//! # Exactly-once enumeration
//!
//! The shuffle algorithms replicate rectangles so every candidate tuple
//! *meets* somewhere, then keep one copy via the designated-cell rule.
//! Stored datasets need neither: each rectangle is stored exactly once at
//! its home cell, so the join picks one *start* relation (the smallest)
//! and, per cell, seeds the kernel with the start rectangles homed there.
//! The other relations are probed through the whole forest of per-cell
//! trees (each tree's root MBR prunes non-overlapping cells in one
//! comparison). Every output tuple contains exactly one start-relation
//! member, which is homed at exactly one cell — so every tuple is
//! enumerated exactly once globally, with no duplicate filtering.
//!
//! The designated-cell rule still matters for *accounting*: tuples are
//! attributed to their §6.2 duplicate-avoidance cell, so the per-cell
//! logical counters (groups, max partition load) mean the same thing they
//! mean for the shuffle algorithms and the equivalence goldens can pin
//! them byte-for-byte.

use std::sync::atomic::{AtomicUsize, Ordering};

use mwsj_geom::Rect;
use mwsj_local::dedup::multiway_tuple_cell_of;
use mwsj_local::{JoinKernel, LocalRect};
use mwsj_mapreduce::{JobError, JobErrorKind, Phase};
use mwsj_query::Query;
use mwsj_rtree::PackedRTree;
use mwsj_store::StoredDataset;

use super::{tuple_ids, AlgoCtx};
use crate::shards::ShardPartial;
use crate::JoinError;

/// Runs the map-side kernel, seeding only from cells in `seed_range`
/// (`None` seeds from every cell). Probes always traverse the whole
/// forest — the scope restricts which tuples are *enumerated*, not
/// which rectangles participate, so disjoint seed ranges partition the
/// output exactly. [`crate::shards::gather`] finalizes one or several
/// of these partials into a [`crate::JoinOutput`]. Of the context it
/// reads only the grid, `count_only` and the cancel token.
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

    // Validate every cell tree once up front; probes borrow these views.
    let forests: Vec<Vec<PackedRTree<'_>>> = stores
        .iter()
        .map(|s| grid.cells().map(|c| s.cell_tree(c)).collect())
        .collect();

    // Per-relation reach: a stored rectangle's body extends right by at
    // most `max_l` and down by at most `max_b` from its home (start)
    // point. A probe therefore only needs the cell trees whose cells can
    // contain the home point of a qualifying rectangle — a handful of
    // cells instead of the whole forest (the dominant cost at scale).
    let reach: Vec<(f64, f64)> = stores
        .iter()
        .map(|s| {
            s.iter().fold((0.0f64, 0.0f64), |(l, b), (r, _)| {
                (l.max(r.l()), b.max(r.b()))
            })
        })
        .collect();
    let (x0, xn) = grid.x_range();
    let (y0, yn) = grid.y_range();
    let (cols, rows) = (grid.cols(), grid.rows());

    // Per-relation root MBRs, `None` for empty cells: probing checks
    // these first, so most trees in the candidate cell span are rejected
    // without a traversal call at all.
    let mbrs: Vec<Vec<Option<Rect>>> = forests
        .iter()
        .map(|trees| trees.iter().map(PackedRTree::root_mbr).collect())
        .collect();

    let kernel = JoinKernel::new(query);
    let in_scope = |c: usize| {
        seed_range
            .as_ref()
            .is_none_or(|r| (c as u64) >= u64::from(r.start) && (c as u64) < u64::from(r.end))
    };
    let cells: Vec<usize> = (0..num_cells)
        .filter(|&c| in_scope(c) && !forests[start][c].is_empty())
        .collect();
    let workers = std::thread::available_parallelism()
        .map_or(4, std::num::NonZeroUsize::get)
        .min(cells.len().max(1));

    let next = AtomicUsize::new(0);
    let mut tuples: Vec<Vec<u32>> = Vec::new();
    let mut tally: Vec<u64> = vec![0; num_cells];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let forests = &forests;
                let reach = &reach;
                let mbrs = &mbrs;
                let kernel = &kernel;
                let cells = &cells;
                let next = &next;
                scope.spawn(move || {
                    let mut out: Vec<Vec<u32>> = Vec::new();
                    let mut tally: Vec<u64> = vec![0; num_cells];
                    let mut stack: Vec<u32> = Vec::new();
                    let mut seeds: Vec<LocalRect> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&cell) = cells.get(i) else { break };
                        if ctx.cancel.is_cancelled() {
                            break;
                        }
                        seeds.clear();
                        seeds.extend(forests[start][cell].iter());
                        kernel.execute_seeded(
                            start,
                            &seeds,
                            |w, rect, d, acc| {
                                // Home points of rectangles within d of the
                                // probe lie in the probe window grown by d,
                                // plus the relation's reach to the left/top
                                // (bodies extend right/down from the home
                                // point). Widened by one cell to absorb
                                // floating-point rounding; each tree's root
                                // MBR exactly re-filters.
                                let (max_l, max_b) = reach[w];
                                let c0 = grid
                                    .col_of_x((rect.min_x() - d - max_l).clamp(x0, xn))
                                    .saturating_sub(1);
                                let c1 = (grid.col_of_x((rect.max_x() + d).clamp(x0, xn)) + 1)
                                    .min(cols - 1);
                                let r0 = grid
                                    .row_of_y((rect.max_y() + d + max_b).clamp(y0, yn))
                                    .saturating_sub(1);
                                let r1 = (grid.row_of_y((rect.min_y() - d).clamp(y0, yn)) + 1)
                                    .min(rows - 1);
                                for row in r0..=r1 {
                                    for col in c0..=c1 {
                                        let idx = (row * cols + col) as usize;
                                        if !mbrs[w][idx].is_some_and(|m| m.within_distance(rect, d))
                                        {
                                            continue;
                                        }
                                        forests[w][idx].query_within_scratch(
                                            rect,
                                            d,
                                            &mut stack,
                                            |r, id| acc.push((r, id)),
                                        );
                                    }
                                }
                            },
                            |tuple| {
                                let dc = multiway_tuple_cell_of(grid, tuple.iter().map(|(r, _)| r));
                                tally[dc.0 as usize] += 1;
                                if !count_only {
                                    out.push(tuple_ids(tuple));
                                }
                            },
                        );
                    }
                    (out, tally)
                })
            })
            .collect();
        for h in handles {
            let (out, t) = h.join().expect("map-side worker panicked");
            tuples.extend(out);
            for (total, part) in tally.iter_mut().zip(t) {
                *total += part;
            }
        }
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
