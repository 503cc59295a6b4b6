//! The *2-way Cascade* baseline (§6.1).
//!
//! The multi-way query is evaluated as a sequence of 2-way joins, one
//! map-reduce job per join condition, in [`execution_order`]: the first
//! listed condition, then repeatedly the first remaining condition that
//! touches a relation already bound — the query's own order whenever every
//! prefix of it is connected (the paper assumes the given order is the
//! optimal one, §6.1 footnote; [`crate::optimizer::cascade_order`] finds a
//! better one from each relation's records per home cell and side sums,
//! not from samples). The optimizer prices the cascade by walking the same
//! function, so its estimate describes the jobs that run.
//! Each job joins the growing intermediate result with the next base
//! relation using the 2-way blueprint of §5: the bound side is routed to
//! every cell its (enlarged, for range predicates) anchor rectangle
//! overlaps, the new relation is split, and the §5.3 designated-cell rule
//! keeps one copy of each pair. Between jobs the intermediate result is
//! materialized on the DFS — the "huge reading and writing cost" of §6.4
//! shows up in the DFS byte counters.
//!
//! A join condition whose endpoints are both already bound (only possible
//! for cyclic queries; the paper's queries are chains and stars) is
//! applied as a filter over the intermediate result instead of a join —
//! Hadoop would fold that predicate into the following job's reducer.

use mwsj_geom::Rect;
use mwsj_local::{multiway, GroupIndex, LocalRect};
use mwsj_mapreduce::RecordSize;
use mwsj_partition::CellId;
use mwsj_query::{Predicate, Query, RelationId, Triple};

use super::{AlgoCtx, Inputs};
use crate::record::InputRef;
use crate::{JoinError, JoinOutput, ReplicationStats, TaggedRect};

/// A partially-joined tuple: one optional `(id, rect)` slot per relation
/// position.
#[derive(Debug, Clone, PartialEq)]
struct Partial {
    slots: Vec<Option<(u32, Rect)>>,
}

impl Partial {
    fn bind(&self, pos: usize, id: u32, rect: Rect) -> Partial {
        let mut slots = self.slots.clone();
        debug_assert!(slots[pos].is_none());
        slots[pos] = Some((id, rect));
        Partial { slots }
    }

    fn rect(&self, pos: usize) -> Rect {
        self.slots[pos].expect("position bound").1
    }
}

impl RecordSize for Partial {
    fn size_bytes(&self) -> usize {
        // One presence byte per slot; bound slots carry id + 4 corners.
        self.slots.iter().map(|s| 1 + s.map_or(0, |_| 4 + 32)).sum()
    }
}

/// One record of a cascade stage's input, read where it lives: on the
/// anchor side a tuple of the previous stage's result, borrowed, or at
/// stage 0 a base record of the anchor relation with the query's relation
/// count; on the other side a base record of the relation being joined
/// in. A stage shuffles the record's index, charged [`SideRef::bytes`].
enum SideRef<'a> {
    Tuple(&'a Partial),
    Anchor(TaggedRect, usize),
    Base(TaggedRect),
}

impl SideRef<'_> {
    /// What shipping the record costs: a side tag byte, then the tuple —
    /// a stage-0 anchor as the one-slot tuple it binds — or the base record.
    fn bytes(&self) -> u32 {
        let body = match self {
            SideRef::Tuple(p) => p.size_bytes(),
            SideRef::Anchor(_, n) => n + 4 + 32,
            SideRef::Base(tr) => tr.size_bytes(),
        };
        (1 + body) as u32
    }

    /// The rectangle at `pos`: the anchor of a tuple, or the record's own.
    fn rect(&self, pos: usize) -> Rect {
        match self {
            SideRef::Tuple(p) => p.rect(pos),
            SideRef::Anchor(tr, _) | SideRef::Base(tr) => tr.rect,
        }
    }

    /// The anchor-side record as a tuple with `(id, rect)` bound at `pos`
    /// too: a stage-0 anchor is lifted only here, for an output.
    fn bind(&self, pos: usize, id: u32, rect: Rect) -> Partial {
        match *self {
            SideRef::Tuple(p) => p.bind(pos, id, rect),
            SideRef::Anchor(tr, n) => {
                let mut slots = vec![None; n];
                slots[tr.relation.index()] = Some((tr.id, tr.rect));
                slots[pos] = Some((id, rect));
                Partial { slots }
            }
            SideRef::Base(tr) => unreachable!("a base record binds no tuple: {tr:?}"),
        }
    }
}

/// One output record of a cascade stage. In count-only mode the final
/// stage emits per-reducer [`StageOut::Count`] records instead of bound
/// tuples: the count travels through the engine's task-commit protocol, so
/// retried or speculative attempts (whose output is discarded) cannot
/// double-count — a shared counter bumped from the reduce closure would.
enum StageOut {
    Tuple(Partial),
    Count(u64),
}

/// What one cascade stage does with its condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// The first stage: a job joining the condition's two base relations.
    Base,
    /// A job joining the intermediate result, anchored at the condition's
    /// bound endpoint, with the base relation `new`.
    Extend {
        /// The endpoint the intermediate result already binds.
        anchor: RelationId,
        /// The endpoint this stage binds.
        new: RelationId,
    },
    /// Both endpoints are bound already (cyclic queries only): the
    /// condition filters the intermediate result in place, without a job.
    Filter,
}

impl Stage {
    /// What a condition would do as the next stage, given which relation
    /// positions are `bound` ([`Stage::Base`] once something is bound: not
    /// connected yet, so not runnable).
    pub(crate) fn of(t: &Triple, bound: &[bool]) -> Stage {
        match (bound[t.left.index()], bound[t.right.index()]) {
            (false, false) => Stage::Base,
            (true, false) => Stage::Extend {
                anchor: t.left,
                new: t.right,
            },
            (false, true) => Stage::Extend {
                anchor: t.right,
                new: t.left,
            },
            (true, true) => Stage::Filter,
        }
    }
}

/// The cascade's stages, in the order it runs them, each with the index of
/// its condition in [`Query::triples`]: the first listed condition, then
/// repeatedly the first remaining one with an endpoint already bound (a
/// connected query graph guarantees one exists). Walked by [`run`] and by
/// the optimizer's cascade cost, so the two cannot disagree.
pub(crate) fn execution_order(query: &Query) -> Vec<(usize, Stage)> {
    let triples = query.triples();
    let mut bound = vec![false; query.num_relations()];
    let mut remaining: Vec<usize> = (0..triples.len()).collect();
    let mut order = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let next = remaining
            .iter()
            .position(|&i| order.is_empty() || Stage::of(&triples[i], &bound) != Stage::Base)
            .expect("connected query graph");
        let i = remaining.remove(next);
        order.push((i, Stage::of(&triples[i], &bound)));
        bound[triples[i].left.index()] = true;
        bound[triples[i].right.index()] = true;
    }
    order
}

pub(crate) fn run(
    ctx: &AlgoCtx<'_>,
    query: &Query,
    inputs: Inputs<'_>,
) -> Result<JoinOutput, JoinError> {
    let order = execution_order(query);
    let mut intermediate: Vec<Partial> = Vec::new();
    // In count-only mode the *final* stage only counts its output — every
    // earlier stage must still materialize (its result feeds the next job;
    // that materialization is precisely the cascade's cost).
    let mut counted_final: Option<u64> = None;

    for (stage, &(idx, kind)) in order.iter().enumerate() {
        let triple = query.triples()[idx];
        let last_stage = stage + 1 == order.len();
        let counting = ctx.count_only && last_stage;
        let name = format!("cascade-stage-{stage}");

        let (result, count) = match kind {
            Stage::Base => base_base_join(ctx, inputs, triple, &name, counting)?,
            Stage::Extend { anchor, new } => stage_join(
                ctx,
                inputs,
                triple,
                anchor,
                new,
                &intermediate,
                &name,
                counting,
            )?,
            Stage::Filter => {
                // Cycle-closing predicate: filter in place.
                let (l, r) = (triple.left.index(), triple.right.index());
                let kept: Vec<Partial> = intermediate
                    .into_iter()
                    .filter(|p| triple.predicate.eval(&p.rect(l), &p.rect(r)))
                    .collect();
                let c = kept.len() as u64;
                (if counting { Vec::new() } else { kept }, c)
            }
        };
        intermediate = result;
        if counting {
            counted_final = Some(count);
        }

        // Materialize the intermediate result between jobs, as a Hadoop
        // cascade must (§6.4).
        if !last_stage {
            intermediate = ctx.materialize(&format!("cascade/stage-{stage}"), intermediate)?;
        }
    }

    let tuples: Vec<Vec<u32>> = intermediate
        .iter()
        .map(|p| {
            p.slots
                .iter()
                .map(|s| s.expect("all positions bound at the end").0)
                .collect()
        })
        .collect();
    let tuple_count = counted_final.unwrap_or(tuples.len() as u64);

    Ok(JoinOutput {
        tuples: multiway::normalized(tuples),
        tuple_count,
        // The cascade never replicates; its cost lives in the DFS and
        // shuffle counters of the report.
        stats: ReplicationStats::default(),
        report: ctx.report(),
        algorithm: super::Algorithm::TwoWayCascade,
    })
}

/// Stage 0: join two base relations (§5.2/§5.3). The left side is routed
/// by its enlarged rectangle, the right side is split.
fn base_base_join(
    ctx: &AlgoCtx<'_>,
    inputs: Inputs<'_>,
    triple: Triple,
    name: &str,
    counting: bool,
) -> Result<(Vec<Partial>, u64), JoinError> {
    let (l, r) = (triple.left, triple.right);
    let left = inputs.size(l.index());
    // The left relation's records, then the right's.
    let read = |i: u32| match (i as usize).checked_sub(left) {
        None => SideRef::Anchor(inputs.record(l.index(), i as usize), inputs.len()),
        Some(i) => SideRef::Base(inputs.record(r.index(), i)),
    };
    run_pair_job(
        ctx,
        name,
        left + inputs.size(r.index()),
        read,
        triple.predicate,
        l,
        false,
        r,
        counting,
    )
}

/// Later stages: join the intermediate result (anchored at `anchor_pos`)
/// with base relation `new_pos`.
#[allow(clippy::too_many_arguments)]
fn stage_join(
    ctx: &AlgoCtx<'_>,
    inputs: Inputs<'_>,
    triple: Triple,
    anchor_pos: RelationId,
    new_pos: RelationId,
    intermediate: &[Partial],
    name: &str,
    counting: bool,
) -> Result<(Vec<Partial>, u64), JoinError> {
    // The intermediate tuples, then the new relation's records.
    let read = |i: u32| match intermediate.get(i as usize) {
        Some(p) => SideRef::Tuple(p),
        None => SideRef::Base(inputs.record(new_pos.index(), i as usize - intermediate.len())),
    };
    run_pair_job(
        ctx,
        name,
        intermediate.len() + inputs.size(new_pos.index()),
        read,
        triple.predicate,
        anchor_pos,
        anchor_pos == triple.right,
        new_pos,
        counting,
    )
}

/// The shared 2-way job: anchor-side records are routed by their enlarged
/// anchor rectangle, `new_pos` base rectangles are split. Each reducer
/// pairs them with one `GroupIndex::pairs` sweep and keeps a pair only at
/// its designated cell.
/// The map input, and what the reducers receive, is the indices
/// `0..records`; `read` yields the record behind each.
#[allow(clippy::too_many_arguments)]
fn run_pair_job<'a>(
    ctx: &AlgoCtx<'_>,
    name: &str,
    records: usize,
    read: impl Fn(u32) -> SideRef<'a> + Sync,
    predicate: Predicate,
    anchor_pos: RelationId,
    anchor_is_right: bool,
    new_pos: RelationId,
    counting: bool,
) -> Result<(Vec<Partial>, u64), JoinError> {
    let grid = ctx.grid;
    let d = predicate.distance();
    let anchor = anchor_pos.index();
    let outputs: Vec<StageOut> = ctx.run(
        ctx.spec(name)
            .map(|&index: &u32, emit| {
                let record = read(index);
                let cells = match record {
                    SideRef::Base(tr) => grid.split_cells(&tr.rect),
                    _ => grid.split_cells_enlarged(&record.rect(anchor), d),
                };
                let charge = record.bytes();
                for cell in cells {
                    emit(cell.0, InputRef { index, charge });
                }
            })
            .partition(|&k: &u32, p| k as usize % p)
            .reduce(|&cell: &u32, values: &[InputRef<u32>], out| {
                // Anchors stay where they live, bound into a tuple only for
                // an output; the sides of the one-edge group are copied out.
                let mut anchors: Vec<u32> = Vec::new();
                let mut sides: [Vec<LocalRect>; 2] = Default::default();
                for v in values {
                    match read(v.index) {
                        SideRef::Base(tr) => sides[1].push((tr.rect, tr.id)),
                        record => {
                            sides[0].push((record.rect(anchor), 0));
                            anchors.push(v.index);
                        }
                    }
                }
                if sides.iter().any(Vec::is_empty) {
                    return;
                }
                let pairs = GroupIndex::new(&sides).pairs(0, 1, d, None);
                let mut found = 0u64;
                for (i, (&index, &(anchor_rect, _))) in anchors.iter().zip(&sides[0]).enumerate() {
                    for &j in pairs.from(0, 1).row(i) {
                        let (rect, id) = sides[1][j as usize];
                        // The pair list equals the predicate for Overlap
                        // and Range; asymmetric predicates (Contains) need the
                        // exact oriented check on top.
                        if !predicate.eval_oriented(&anchor_rect, &rect, anchor_is_right) {
                            continue;
                        }
                        // Designated cell (§5.3): the start of the overlap
                        // between the enlarged anchor and the partner.
                        let designated =
                            mwsj_local::dedup::range_pair_cell(grid, &anchor_rect, &rect, d)
                                .expect("within distance implies enlarged overlap");
                        if designated == CellId(cell) {
                            if counting {
                                found += 1;
                            } else {
                                let tuple = read(index).bind(new_pos.index(), id, rect);
                                out(StageOut::Tuple(tuple));
                            }
                        }
                    }
                }
                if found > 0 {
                    out(StageOut::Count(found));
                }
            }),
        &(0..u32::try_from(records).expect("a stage maps at most u32::MAX records"))
            .collect::<Vec<u32>>(),
    )?;

    let mut partials = Vec::with_capacity(outputs.len());
    let mut count = 0u64;
    for o in outputs {
        match o {
            StageOut::Tuple(p) => {
                count += 1;
                partials.push(p);
            }
            StageOut::Count(c) => count += c,
        }
    }
    Ok((partials, count))
}
