//! *Controlled-Replicate* and *C-Rep-L* (§7, §8, §9).
//!
//! Two map-reduce rounds:
//!
//! 1. **Mark, and join what the cell holds.** All relations are *split*;
//!    the reducer of each cell `c` runs the C1-C4 marking procedure
//!    (`mwsj_local::marking`) and emits the marked rectangles **starting**
//!    in `c`. Each rectangle starts in exactly one cell (and is always
//!    split onto it), so a marked rectangle is emitted exactly once. The
//!    reducer then runs the local multi-way join over the same group —
//!    off the pair lists marking already swept — and emits every tuple
//!    whose §6.2 designated cell is `c`. Only the marked stream is
//!    materialized on the DFS, as Hadoop would between jobs.
//! 2. **Join across cells.** The marked rectangles are replicated — with
//!    `f1` (C-Rep) or with `f2` under per-relation distance bounds
//!    (C-Rep-L). Each reducer computes the local multi-way join and emits
//!    a tuple iff its cell is the tuple's designated cell *and* some
//!    member is not split onto it — the tuples round 1 could not see.
//!
//! This departs from §7.1, which *projects* every unmarked rectangle into
//! round 2 so that one reducer pass emits all tuples. The output is the
//! same; the unmarked rectangles just never cross the DFS or the second
//! shuffle.
//!
//! # Why an unmarked rectangle never leaves round 1
//!
//! For an output tuple `U'` and an unmarked member `v` starting in cell
//! `c_v`: if some member of `U'` did not overlap `c_v`, the members of
//! `U'` overlapping `c_v` would satisfy C1-C3 there (the paper's §7.5
//! argument) and `v` would have been marked. So *all* members overlap
//! `c_v` — and under the half-open cell-region semantics of
//! `mwsj-partition`, the duplicate-avoidance point `(u_r.x, u_l.y)` then
//! lies in `c_v` itself (the region contains `u_r.x` because `u_r`
//! overlaps the region and starts right of `v`; symmetrically for
//! `u_l.y`). Hence the designated cell is `c_v`, every member is split
//! onto it, and its round-1 reducer emits `U'`.
//!
//! Contrapositive: a tuple with a member that is *not* split onto its
//! designated cell consists of marked rectangles only, and every marked
//! member reaches that cell in round 2 because the designated cell lies
//! in each member's 4th quadrant. So round 1 emits exactly the tuples
//! whose members are all split onto their designated cell, round 2
//! exactly the others, and each tuple is emitted once.
//!
//! Round 2's "is every member split onto this cell" must be the function
//! that routed round 1, [`mwsj_partition::Grid::splits_onto`]. A test
//! against the cell's corner coordinates differs from the routing by one
//! ulp on non-dyadic grids; a tuple with an edge on such a boundary would
//! then be taken for local by round 2 although round 1 never saw it
//! whole, and be lost.
//!
//! # The C-Rep-L bound
//!
//! §7.9/§8 bound the distance between *joined rectangles* along join-graph
//! paths (`replication_bounds`), charging each rectangle crossed on the
//! way its diagonal. The bound holds **per axis**, with each body charged
//! its side on that axis, and per axis is all the routing needs:
//!
//! 1. Along a path `m = V_0, …, V_h = v` between members, consecutive
//!    members are within their edge's distance, a gap on one axis never
//!    exceeds the distance, and a member crossed spans at most `l_max` on
//!    x ([`Inputs::max_sides`]): the x gap between `m` and any member `v`
//!    is at most `Bx = replication_bounds(query, l_max)` at `m`'s
//!    relation. Likewise `By`, with `b_max`, on y.
//! 2. The designated cell is `cell_of_point(x*, y*)` with `x*` the largest
//!    start x and `y*` the smallest top y over the tuple's members
//!    (`mwsj_local::dedup::multiway_tuple_cell_of`).
//! 3. `m` is a member, so `m.min_x ≤ x*` and `y* ≤ m.max_y`.
//! 4. `x*` is the left edge of a member within an x gap of `Bx` of `m`:
//!    `x* ≤ m.max_x + Bx`. Likewise `y*` is the top edge of a member
//!    within a y gap of `By`: `m.min_y − By ≤ y*`.
//! 5. `col_of_x` and `row_of_y` are monotone (a subtraction, a division by
//!    a positive constant, a truncation and a clamp), in computed
//!    arithmetic as over the reals.
//! 6. Hence the designated cell lies in the index span of `m` stretched
//!    right by `Bx` and down by `By` — [`Grid::fourth_quadrant_cells_within`],
//!    the *split* of that stretched rectangle. No distance is computed, and
//!    no cell corner (`x0 + col × width`, which parts from the routing
//!    division by an ulp on non-dyadic grids) is consulted.
//!
//! Step 4 is a statement about real numbers, and `m.max_x + Bx` is a
//! computed sum of a computed path cost; with a range distance of exactly
//! one cell width a designated cell sits *at* the bound on both axes
//! (`tests/crep_l_bound_counterexample.rs`, where a bound one ulp low lost
//! the tuple). `replication_bounds` yields a one-hop bound exactly, and
//! [`limited_reach`] widens each axis's bound by a few ulps of itself and
//! of the largest grid coordinate, which covers the rounding of that sum.
//! What the bound guarantees is one-sided: every cell within the
//! real-number bound is reached. A cell a rounding error beyond it may be
//! reached too, which costs one shuffled record and no correctness —
//! round 2's designated-cell filter decides what is emitted.

use mwsj_local::{marking, GroupIndex, JoinKernel};
use mwsj_partition::{CellId, Grid};
use mwsj_query::{replication_bounds, Query, RelationId};

use super::{join_group, replicate_join, AlgoCtx, Algorithm, Inputs, JoinJob, TupleFilter};
use crate::record::{group_by_relation, InputRef};
use crate::{JoinError, JoinOutput, TaggedRect};

/// The C-Rep-L replication reach per relation position, `(x, y)`: the
/// join-graph bound for bodies at most `l` long on the x axis and at most
/// `b` broad on the y axis, each widened so that rounding cannot stop
/// short of a cell at exactly that gap (module docs). The one definition
/// both the routing and the optimizer's pricing of it use.
pub(crate) fn limited_reach(query: &Query, (l, b): (f64, f64), grid: &Grid) -> Vec<(f64, f64)> {
    const ULPS: f64 = 8.0 * f64::EPSILON;
    let (x0, xn) = grid.x_range();
    let (y0, yn) = grid.y_range();
    let largest_coordinate = [x0, xn, y0, yn]
        .into_iter()
        .map(f64::abs)
        .fold(0.0, f64::max);
    let widen = |reach: f64| reach * (1.0 + ULPS) + largest_coordinate * ULPS;
    let y = replication_bounds(query, b);
    (replication_bounds(query, l).into_iter())
        .zip(y)
        .map(|(x, y)| (widen(x), widen(y)))
        .collect()
}

/// What a round-1 reducer commits.
enum Round1 {
    /// A marked rectangle starting in the reducer's cell: round 2's input.
    Marked(TaggedRect),
    /// A join output record (tuple ids or a count record) of the cell.
    Joined(Vec<u32>),
}

pub(crate) fn run(
    ctx: &AlgoCtx<'_>,
    query: &Query,
    inputs: Inputs<'_>,
    limit: bool,
) -> Result<JoinOutput, JoinError> {
    let grid = ctx.grid;
    let n = query.num_relations();
    let kernel = JoinKernel::new(query);

    // ---- Round 1: split everything; mark and join per cell -----------
    // The map and the reducers read the bound relations in place; the
    // index vector is dropped with the job, before round 2.
    let round1: Vec<Round1> = ctx.run(
        ctx.spec("c-rep-round1-mark")
            .map(|&i: &u32, emit| {
                for cell in grid.split_cells(&inputs.get(i).rect) {
                    emit(cell.0, InputRef::fixed(i));
                }
            })
            .partition(|&k: &u32, p| k as usize % p)
            .reduce(|&cell: &u32, values: &[InputRef], out| {
                let rels = group_by_relation(n, values.iter().map(|v| inputs.get(v.index)));
                // One sweep per edge serves the marking and the join below.
                // So does one classification of every member against the
                // cell: marking's crossing test, the home test below and
                // the count read it.
                let group = GroupIndex::new(&rels);
                let flags = marking::mark_indexed(query, grid, CellId(cell), &group);
                let classes = group.classes(grid, CellId(cell));
                for (pos, (rel_rects, rel_flags)) in rels.iter().zip(&flags).enumerate() {
                    let rel = rel_rects.iter().zip(rel_flags).zip(&classes[pos]);
                    for ((&(rect, id), &marked), class) in rel {
                        if marked && class.is_home() {
                            out(Round1::Marked(TaggedRect::new(
                                RelationId(pos as u16),
                                id,
                                rect,
                            )));
                        }
                    }
                }
                // Everything split onto this cell is here, so a tuple
                // designated to it is found here iff all its members are
                // split onto it; round 2 emits the others.
                join_group(
                    ctx,
                    &kernel,
                    TupleFilter::Designated,
                    cell,
                    &group,
                    &mut |record| out(Round1::Joined(record)),
                );
            }),
        &inputs.indices(),
    )?;
    let mut marked = Vec::new();
    let mut joined = Vec::new();
    for record in round1 {
        match record {
            Round1::Marked(tr) => marked.push(tr),
            Round1::Joined(ids) => joined.push(ids),
        }
    }

    // Materialize the marked stream between jobs, as Hadoop does. Under
    // fault injection the read-back may hit transient failures; exhausted
    // retries surface as a `JoinError::Dfs`.
    let marked = ctx.materialize("c-rep/marked", marked)?;

    let reach = limit.then(|| limited_reach(query, inputs.max_sides(), grid));

    // ---- Round 2: replicate the marked, join across cells ------------
    let (name, algorithm) = if limit {
        ("c-rep-l-round2-join", Algorithm::ControlledReplicateLimit)
    } else {
        ("c-rep-round2-join", Algorithm::ControlledReplicate)
    };
    let job = JoinJob {
        name,
        algorithm,
        filter: TupleFilter::DesignatedCrossCell,
        earlier: joined,
    };
    let read = |i: u32| marked[i as usize];
    replicate_join(ctx, query, job, marked.len(), read, |tr, emit| {
        let targets = match reach.as_ref().map(|reach| reach[tr.relation.index()]) {
            Some((x, y)) => grid.fourth_quadrant_cells_within(&tr.rect, x, y),
            None => grid.fourth_quadrant_cells(&tr.rect),
        };
        for cell in targets {
            emit(cell.0);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_geom::Rect;

    #[test]
    fn limited_reach_covers_the_cell_at_exactly_the_bound() {
        // tests/crep_l_bound_counterexample.rs at the routing level: `b`
        // is one cell width from cell 8 on each axis, the range is one
        // cell width, so cell 8 sits at exactly the middle relation's
        // bound on both axes.
        let grid = Grid::square((0.0, 1000.0), (0.0, 1000.0), 3);
        let cell = 1000.0 / 3.0;
        let query = Query::parse(&format!("A ra({cell}) B and B ra({cell}) C")).unwrap();
        let reach = limited_reach(&query, (1000.0, 1000.0), &grid);
        let b = Rect::from_bounds(cell / 2.0, 2.0 * cell, cell, 1000.0).unwrap();
        let (x, y) = reach[1];
        assert!(grid
            .fourth_quadrant_cells_within(&b, x, y)
            .any(|c| c == CellId(8)));
        // The reach is the paper's bound; the widening is slack for
        // rounding, not more reach.
        for bound in [x, y] {
            assert!(bound > cell && bound < cell * (1.0 + 1e-12));
        }
    }
}
