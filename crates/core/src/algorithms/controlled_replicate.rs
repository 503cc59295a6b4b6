//! *Controlled-Replicate* and *C-Rep-L* (§7, §8, §9).
//!
//! Two map-reduce rounds:
//!
//! 1. **Mark.** All relations are *split*; the reducer of each cell runs
//!    the C1-C4 marking procedure (`mwsj_local::marking`) and emits every
//!    rectangle **starting** in its cell, flagged marked or unmarked. Each
//!    rectangle starts in exactly one cell (and is always split onto it),
//!    so round 1 emits each input rectangle exactly once. The flagged
//!    stream is materialized on the DFS, as Hadoop would between jobs.
//! 2. **Join.** Marked rectangles are replicated — with `f1` (C-Rep) or
//!    with `f2` under per-relation distance bounds (C-Rep-L) — and
//!    unmarked rectangles are projected. Each reducer computes the local
//!    multi-way join; the designated cell of §6.2 emits each tuple once.
//!
//! # Why projecting unmarked rectangles is safe
//!
//! For an output tuple `U'` and an unmarked member `v` starting in cell
//! `c_v`: if some member of `U'` did not overlap `c_v`, the members of
//! `U'` overlapping `c_v` would satisfy C1-C3 there (the paper's §7.5
//! argument) and `v` would have been marked. So *all* members overlap
//! `c_v` — and under the half-open cell-region semantics of
//! `mwsj-partition`, the duplicate-avoidance point `(u_r.x, u_l.y)` then
//! lies in `c_v` itself (the region contains `u_r.x` because `u_r`
//! overlaps the region and starts right of `v`; symmetrically for
//! `u_l.y`). Hence the designated cell is `c_v`, which receives `v` by
//! projection, every other unmarked member by the same argument, and every
//! marked member because the designated cell lies in each member's 4th
//! quadrant.
//!
//! # The C-Rep-L bound
//!
//! §7.9/§8 bound the distance between *joined rectangles* along join-graph
//! paths (`replication_bounds`). The designated cell, however, combines
//! the x of the rightmost and the y of the lowermost member, so its
//! distance from a member `m` is at most `√2 ×` the member-to-member
//! bound (each axis gap is bounded by a distance to one member). We
//! therefore replicate to `√2 × replication_bounds(...)` — the paper does
//! not spell this factor out, but without it boundary configurations lose
//! tuples (our property tests find them).

use mwsj_geom::Rect;
use mwsj_local::marking;
use mwsj_partition::CellId;
use mwsj_query::{replication_bounds, Query};

use super::{flatten_input, max_diagonal, replicate_join, AlgoCtx, Algorithm, JoinJob};
use crate::record::group_by_relation;
use crate::{JoinError, JoinOutput, TaggedRect};

pub(crate) fn run(
    ctx: &AlgoCtx<'_>,
    query: &Query,
    relations: &[&[Rect]],
    limit: bool,
) -> Result<JoinOutput, JoinError> {
    let engine = ctx.engine;
    let grid = ctx.grid;
    let input = flatten_input(relations);
    let n = query.num_relations();

    // ---- Round 1: split everything, mark per cell --------------------
    let round1: Vec<(TaggedRect, bool)> = engine.run(
        ctx.spec("c-rep-round1-mark")
            .map(|tr: &TaggedRect, emit| {
                for cell in grid.split_cells(&tr.rect) {
                    emit(cell.0, *tr);
                }
            })
            .partition(|&k: &u32, p| k as usize % p)
            .reduce(|&cell: &u32, values: &[TaggedRect], out| {
                let cell_id = CellId(cell);
                let rels = group_by_relation(n, values.iter().copied());
                let flags = marking::mark_for_replication(query, grid, cell_id, &rels);
                for (pos, (rel_rects, rel_flags)) in rels.iter().zip(&flags).enumerate() {
                    for (&(rect, id), &marked) in rel_rects.iter().zip(rel_flags) {
                        if grid.cell_of(&rect) == cell_id {
                            out((
                                TaggedRect::new(mwsj_query::RelationId(pos as u16), id, rect),
                                marked,
                            ));
                        }
                    }
                }
            }),
        &input,
    )?;
    debug_assert_eq!(
        round1.len(),
        input.len(),
        "round 1 re-emits each rectangle once"
    );

    // Materialize the flagged stream between jobs, as Hadoop does. Under
    // fault injection the read-back may hit transient failures; exhausted
    // retries surface as a `JoinError::Dfs`.
    engine.dfs.write("c-rep/marked", round1);
    let round1 = engine.dfs.read::<(TaggedRect, bool)>("c-rep/marked")?;

    let marked_count = round1.iter().filter(|(_, m)| *m).count() as u64;

    // C-Rep-L per-relation replication bounds (with the √2 designated-cell
    // factor; see the module docs).
    let bounds: Option<Vec<f64>> = limit.then(|| {
        let d_max = max_diagonal(relations);
        replication_bounds(query, d_max)
            .into_iter()
            .map(|b| b * std::f64::consts::SQRT_2)
            .collect()
    });

    // ---- Round 2: replicate marked / project unmarked, join ----------
    let (name, algorithm) = if limit {
        ("c-rep-l-round2-join", Algorithm::ControlledReplicateLimit)
    } else {
        ("c-rep-round2-join", Algorithm::ControlledReplicate)
    };
    let job = JoinJob {
        name,
        algorithm,
        designated_only: true,
        replicated: marked_count,
    };
    replicate_join(
        ctx,
        query,
        &job,
        &round1,
        |(tr, marked): &(TaggedRect, bool), emit| {
            let targets = if *marked {
                match &bounds {
                    Some(b) => grid.fourth_quadrant_cells_within(&tr.rect, b[tr.relation.index()]),
                    None => grid.fourth_quadrant_cells(&tr.rect),
                }
            } else {
                vec![grid.cell_of(&tr.rect)]
            };
            for cell in targets {
                emit(cell.0, *tr);
            }
        },
    )
}
