//! The *All-Replicate* baseline (§6.1).
//!
//! Every rectangle is replicated to all cells in its 4th quadrant
//! (replication function `f1`), which guarantees that for every output
//! tuple at least one reducer receives all members (§6.3 shows mere
//! splitting does not). Each reducer then computes the local multi-way
//! join and the designated-cell rule of §6.2 keeps exactly one copy of
//! each tuple.
//!
//! One round, but a huge communication cost — a rectangle near the
//! top-left corner travels to almost every reducer, whether or not it
//! joins anything (the paper's `u_4` example).

use mwsj_query::Query;

use super::{replicate_join, AlgoCtx, Algorithm, Inputs, JoinJob, TupleFilter};
use crate::{JoinError, JoinOutput};

pub(crate) fn run(
    ctx: &AlgoCtx<'_>,
    query: &Query,
    inputs: Inputs<'_>,
) -> Result<JoinOutput, JoinError> {
    let grid = ctx.grid;
    let job = JoinJob {
        name: "all-replicate",
        algorithm: Algorithm::AllReplicate,
        filter: TupleFilter::Designated,
        earlier: Vec::new(),
    };
    let read = |i| inputs.get(i);
    replicate_join(ctx, query, job, inputs.total(), read, |tr, emit| {
        for cell in grid.fourth_quadrant_cells(&tr.rect) {
            emit(cell.0);
        }
    })
}
