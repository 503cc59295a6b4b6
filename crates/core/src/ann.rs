//! Nearest-neighbor joins on the map-reduce framework — the
//! nearest-neighbor processing the paper's §10 (and its related work, §3)
//! name as the next query class for the grid approach. There is one
//! scheme, [`knn_join`], with `k` a parameter; the all-nearest-neighbor
//! join is that scheme at `k = 1`, flattened.
//!
//! For every rectangle of the *outer* relation, find its `k` nearest
//! rectangles in the *inner* relation (minimum closed
//! rectangle-to-rectangle distance; ties broken toward the smaller record
//! id). The classic grid scheme:
//!
//! 1. **Candidate round.** The inner relation is *split*; outer rectangles
//!    are *projected*. Each reducer sorts its inner rectangles by `min_x`
//!    and answers every local outer rectangle by scanning that run outward
//!    from it ([`SortedRun::k_best`]); the distance of the k-th local
//!    neighbor is a correct **upper bound** on the true k-th NN distance
//!    (any k local neighbors are at least as far as the true ones). Outer
//!    rectangles whose cell holds fewer than `k` inner rectangles fall
//!    back to the space diagonal.
//! 2. **Verification round.** Each outer rectangle is re-routed to every
//!    cell within its upper bound ([`Grid::split_cells_enlarged`], the
//!    enlarged split of §5.3); the inner relation is split again.
//!    Reducers emit their local k best per outer id, found by the same
//!    scan and kept by `(distance², inner id)`. Since the true
//!    neighbors lie within the upper bound of some cell the rectangle
//!    reaches, their union holds the exact answer.
//! 3. **Aggregation round.** Keyed by outer id, a third job keeps the
//!    global `k` best, mirroring how the Hadoop implementation would fold
//!    results.
//!
//! The jobs are ordinary engine jobs (`knn-round{1,2,3}-*`), traced into
//! the engine's sink. The join returns only its neighbors and drops the
//! jobs' metrics; the engine keeps none either, so a nearest-neighbor join
//! may share a long-lived cluster with running joins and leaves nothing
//! behind.
//!
//! [`Grid::split_cells_enlarged`]: mwsj_partition::Grid::split_cells_enlarged

use mwsj_geom::{Coord, Rect};
use mwsj_local::index::SortedRun;
use mwsj_local::LocalRect;
use mwsj_mapreduce::JobSpec;
use mwsj_partition::CellSpan;

use crate::algorithms::Inputs;
use crate::record::{Fixed, InputRef};
use crate::{Cluster, JoinError};

/// One nearest-neighbor result: the outer record, one of its nearest inner
/// records and their distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearestNeighbor {
    /// Outer record id (index into the outer slice).
    pub outer: u32,
    /// Nearest inner record id.
    pub inner: u32,
    /// Their closed rectangle distance.
    pub distance: Coord,
}

/// Computes the k-nearest-neighbor join: for every outer rectangle, its
/// `k` nearest inner rectangles (fewer when `|inner| < k`), each inner
/// list sorted by `(distance, inner id)`.
///
/// # Panics
/// Panics if any rectangle lies outside the cluster space or `k == 0`, or
/// — under a fault plan — if a job fails outright (use [`try_knn_join`]
/// to handle all three).
#[must_use]
pub fn knn_join(
    cluster: &Cluster,
    outer: &[Rect],
    inner: &[Rect],
    k: usize,
) -> Vec<Vec<NearestNeighbor>> {
    try_knn_join(cluster, outer, inner, k).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`knn_join`], returning what it panics on as a [`JoinError`].
///
/// # Errors
/// [`JoinError::InvalidInput`] on caller errors, found before any job
/// starts: `k == 0`, a rectangle of either side outside the cluster
/// space, or more than `u32::MAX` records on the two sides together.
/// [`JoinError::Job`] when a map-reduce job exhausts its attempt budget
/// under a fault plan.
pub fn try_knn_join(
    cluster: &Cluster,
    outer: &[Rect],
    inner: &[Rect],
    k: usize,
) -> Result<Vec<Vec<NearestNeighbor>>, JoinError> {
    let grid = cluster.grid();
    let engine = cluster.engine();
    if k == 0 {
        return Err(JoinError::InvalidInput("k must be positive".to_string()));
    }
    let sides = ["outer relation", "inner relation"];
    cluster.check_inputs(
        Inputs::Memory(&[outer, inner]),
        |i| sides[i].to_string(),
        "a join",
    )?;
    if inner.is_empty() || outer.is_empty() {
        return Ok(vec![Vec::new(); outer.len()]);
    }
    // The worst-possible NN distance: the space diagonal.
    let diag = grid.extent().diagonal();

    // Rounds 1–2 map over record indices, the outer records then the
    // inner ones, and read each record in place: the map, and the reducer
    // through the index it shuffles.
    let input: Vec<u32> = (0..(outer.len() + inner.len()) as u32).collect();
    let read = |i: u32| match (i as usize).checked_sub(outer.len()) {
        None => Record::Outer(i, outer[i as usize]),
        Some(j) => Record::Inner(j as u32, inner[j]),
    };

    // ---- Round 1: k-th-neighbor candidate bounds ----------------------
    let (bounds, _) = engine.run(
        JobSpec::new("knn-round1-candidates")
            .reducers(grid.num_cells() as usize)
            .map(|&i: &u32, emit| match read(i) {
                Record::Outer(_, r) => emit(grid.cell_of(&r).0, InputRef::fixed(i)),
                Record::Inner(_, r) => emit_to(grid.split_cells(&r), i, emit),
            })
            .partition(|&cell: &u32, _| cell as usize)
            .reduce(|_: &u32, values: &[RecordRef], out| {
                let (outers, inners) = partition_records(values.iter().map(|v| read(v.index)));
                let inners = SortedRun::new(inners);
                let mut best = Vec::with_capacity(k);
                for (id, r) in outers {
                    inners.k_best(&r, k, &mut best);
                    // A valid bound needs k local neighbors; otherwise the
                    // true k-th neighbor may be anywhere.
                    let ub = best.get(k - 1).map_or(diag, |b| b.0.sqrt());
                    out((id, ub));
                }
            }),
        &input,
    )?;

    // ---- Round 2: verified local k-best lists --------------------------
    let mut ub_of = vec![diag; outer.len()];
    for (id, ub) in bounds {
        ub_of[id as usize] = ub;
    }
    let (locals, _) = engine.run(
        JobSpec::new("knn-round2-verify")
            .reducers(grid.num_cells() as usize)
            .map(|&i: &u32, emit| {
                let cells = match read(i) {
                    Record::Outer(id, r) => grid.split_cells_enlarged(&r, ub_of[id as usize]),
                    Record::Inner(_, r) => grid.split_cells(&r),
                };
                emit_to(cells, i, emit);
            })
            .partition(|&cell: &u32, _| cell as usize)
            .reduce(|_: &u32, values: &[RecordRef], out| {
                let (outers, inners) = partition_records(values.iter().map(|v| read(v.index)));
                let inners = SortedRun::new(inners);
                let mut best = Vec::with_capacity(k);
                for (outer, r) in outers {
                    inners.k_best(&r, k, &mut best);
                    for &(distance_sq, inner) in &best {
                        out(NearestNeighbor {
                            outer,
                            inner,
                            distance: distance_sq.sqrt(),
                        });
                    }
                }
            }),
        &input,
    )?;

    // ---- Round 3: global top-k per outer id ----------------------------
    let (merged, _) = engine.run(
        JobSpec::new("knn-round3-aggregate")
            .reducers(outer.len().clamp(1, 64))
            .map(|nn: &NearestNeighbor, emit| emit(nn.outer, *nn))
            .partition(|&oid: &u32, n| oid as usize % n)
            .reduce(|&oid: &u32, candidates: &[NearestNeighbor], out| {
                // The same inner can be reported by several reducers, always
                // at the same distance: equal ids are adjacent after the sort.
                let mut candidates = candidates.to_vec();
                candidates.sort_unstable_by(nearer_then_smaller_id);
                candidates.dedup_by_key(|nn| nn.inner);
                candidates.truncate(k);
                out((oid, candidates));
            }),
        &locals,
    )?;
    let mut result = vec![Vec::new(); outer.len()];
    for (oid, list) in merged {
        result[oid as usize] = list;
    }
    Ok(result)
}

/// The result order: nearest first, ties toward the smaller inner id.
fn nearer_then_smaller_id(a: &NearestNeighbor, b: &NearestNeighbor) -> std::cmp::Ordering {
    a.distance
        .total_cmp(&b.distance)
        .then(a.inner.cmp(&b.inner))
}

impl mwsj_mapreduce::RecordSize for NearestNeighbor {
    fn size_bytes(&self) -> usize {
        4 + 4 + 8
    }
}

/// A round-1/2 input record: an outer or inner rectangle with its id.
#[derive(Clone, Copy)]
enum Record {
    Outer(u32, Rect),
    Inner(u32, Rect),
}

/// A round-1/2 shuffle value: the index of a [`Record`], charged its side
/// tag (1), id (4) and four corners (32).
type RecordRef = InputRef<Fixed<{ 1 + 4 + 32 }>>;

/// Emits a reference to input record `i` to every cell of `cells`.
fn emit_to(cells: CellSpan, i: u32, emit: &mut dyn FnMut(u32, RecordRef)) {
    for cell in cells {
        emit(cell.0, InputRef::fixed(i));
    }
}

/// Splits reducer input into `(outer, inner)` lists: outer rectangles as
/// `(id, rect)`, inner ones as `(rect, id)`.
fn partition_records(values: impl Iterator<Item = Record>) -> (Vec<(u32, Rect)>, Vec<LocalRect>) {
    let mut outers = Vec::new();
    let mut inners = Vec::new();
    for v in values {
        match v {
            Record::Outer(id, r) => outers.push((id, r)),
            Record::Inner(id, r) => inners.push((r, id)),
        }
    }
    (outers, inners)
}

/// Reference kNN implementation: brute-force scan (every distance, sorted,
/// cut at `k`). Exact, O(|outer|·|inner| log |inner|).
#[must_use]
pub fn knn_brute_force(outer: &[Rect], inner: &[Rect], k: usize) -> Vec<Vec<NearestNeighbor>> {
    outer
        .iter()
        .enumerate()
        .map(|(oid, o)| {
            let mut all: Vec<NearestNeighbor> = inner
                .iter()
                .enumerate()
                .map(|(i, r)| NearestNeighbor {
                    outer: oid as u32,
                    inner: i as u32,
                    distance: o.distance(r),
                })
                .collect();
            all.sort_unstable_by(nearer_then_smaller_id);
            all.truncate(k);
            all
        })
        .collect()
}
