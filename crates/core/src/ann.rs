//! Nearest-neighbor joins on the map-reduce framework — the
//! nearest-neighbor processing the paper's §10 (and its related work, §3)
//! name as the next query class for the grid approach: [`ann_join`] (each
//! outer rectangle's single nearest inner rectangle) and its
//! generalization [`knn_join`] (the k nearest).
//!
//! For every rectangle of the *outer* relation, find its nearest
//! rectangle(s) in the *inner* relation (minimum closed
//! rectangle-to-rectangle distance; ties broken toward the smaller record
//! id). The classic grid scheme:
//!
//! 1. **Candidate round.** The inner relation is *split*; outer rectangles
//!    are *projected*. Each reducer answers every local outer rectangle
//!    from its local R-tree, producing a correct **upper bound** on the
//!    true NN distance (any local neighbor is at least as far as the true
//!    one). Outer rectangles whose cell holds no inner rectangle fall back
//!    to the space diagonal.
//! 2. **Verification round.** Each outer rectangle is re-routed to every
//!    cell within its upper bound (the enlarged-split transform of §5.3);
//!    the inner relation is split again. Reducers emit their local best
//!    per outer id, keyed by id, and a final aggregation keeps the global
//!    minimum. Since the true NN lies within the upper bound of some cell
//!    the rectangle reaches, the global minimum is exact.
//!
//! The by-id aggregation runs as a third map-reduce job, mirroring how the
//! Hadoop implementation would fold results.

use mwsj_geom::{Coord, Rect};
use mwsj_mapreduce::JobSpec;
use mwsj_rtree::{PackedRTree, RTree};

use crate::{Cluster, JoinError};

/// One ANN result: the outer record, its nearest inner record and their
/// distance. Outer rectangles are always resolved when the inner relation
/// is non-empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearestNeighbor {
    /// Outer record id (index into the outer slice).
    pub outer: u32,
    /// Nearest inner record id.
    pub inner: u32,
    /// Their closed rectangle distance.
    pub distance: Coord,
}

/// Computes the all-nearest-neighbor join of `outer` against `inner` on
/// the cluster. Returns one entry per outer rectangle, sorted by outer id;
/// empty when `inner` is empty.
///
/// # Panics
/// Panics if any rectangle lies outside the cluster space, or — under a
/// fault plan — if a job fails outright (use [`try_ann_join`] to handle
/// that case).
#[must_use]
pub fn ann_join(cluster: &Cluster, outer: &[Rect], inner: &[Rect]) -> Vec<NearestNeighbor> {
    try_ann_join(cluster, outer, inner).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`ann_join`], surfacing failed jobs as a [`JoinError`] instead of
/// panicking.
///
/// # Errors
/// [`JoinError::Job`] when a map-reduce job exhausts its attempt budget
/// under a fault plan.
///
/// # Panics
/// Panics if any rectangle lies outside the cluster space.
pub fn try_ann_join(
    cluster: &Cluster,
    outer: &[Rect],
    inner: &[Rect],
) -> Result<Vec<NearestNeighbor>, JoinError> {
    let grid = cluster.grid();
    let engine = cluster.engine();
    let extent = grid.extent();
    for r in outer.iter().chain(inner) {
        assert!(
            extent.contains_rect(r),
            "rectangle outside the cluster space"
        );
    }
    if inner.is_empty() || outer.is_empty() {
        return Ok(Vec::new());
    }
    engine.reset_metrics();

    // The worst-possible NN distance: the space diagonal.
    let diag = extent.diagonal();

    let mut input: Vec<Record> = Vec::with_capacity(outer.len() + inner.len());
    input.extend(
        outer
            .iter()
            .enumerate()
            .map(|(i, r)| Record::Outer(i as u32, *r)),
    );
    input.extend(
        inner
            .iter()
            .enumerate()
            .map(|(i, r)| Record::Inner(i as u32, *r)),
    );

    // ---- Round 1: local candidate bounds ------------------------------
    let bounds: Vec<(u32, Coord)> = engine.run(
        JobSpec::new("ann-round1-candidates")
            .reducers(grid.num_cells() as usize)
            .map(|record: &Record, emit| match record {
                Record::Outer(id, r) => emit(grid.cell_of(r).0, Record::Outer(*id, *r)),
                Record::Inner(id, r) => {
                    for cell in grid.split_cells(r) {
                        emit(cell.0, Record::Inner(*id, *r));
                    }
                }
            })
            .partition(|&k: &u32, _| k as usize)
            .reduce(|_: &u32, values: &[Record], out| {
                let (outers, inners) = partition_records(values);
                let tree = RTree::bulk_load(inners);
                let tree = tree.view();
                for (id, r) in outers {
                    let ub = tree.nearest(&r).map_or(diag, |(_, _, d)| d);
                    out((id, ub));
                }
            }),
        &input,
    )?;

    // ---- Round 2: verified local bests --------------------------------
    let ub_of: Vec<Coord> = {
        let mut v = vec![diag; outer.len()];
        for &(id, ub) in &bounds {
            v[id as usize] = ub;
        }
        v
    };
    let locals: Vec<NearestNeighbor> = engine.run(
        JobSpec::new("ann-round2-verify")
            .reducers(grid.num_cells() as usize)
            .map(|record: &Record, emit| match record {
                Record::Outer(id, r) => {
                    let reach = r
                        .enlarge(ub_of[*id as usize])
                        .intersection(&extent)
                        .expect("outer rectangle inside the space");
                    for cell in grid.split_cells(&reach) {
                        emit(cell.0, Record::Outer(*id, *r));
                    }
                }
                Record::Inner(id, r) => {
                    for cell in grid.split_cells(r) {
                        emit(cell.0, Record::Inner(*id, *r));
                    }
                }
            })
            .partition(|&k: &u32, _| k as usize)
            .reduce(|_: &u32, values: &[Record], out| {
                let (outers, inners) = partition_records(values);
                if inners.is_empty() {
                    return;
                }
                let tree = RTree::bulk_load(inners);
                let tree = tree.view();
                for (id, r) in outers {
                    if let Some((nn_rect, nn_id, d)) = tree.nearest(&r) {
                        // Re-scan the ≤ d ball tracking (distance², id) so
                        // distance ties resolve toward the smallest inner id —
                        // the tree's own tie-break follows storage order, which
                        // would make the global aggregation nondeterministic.
                        // Seed with the nearest entry itself: `d` is a rounded
                        // sqrt, so the ball query may exclude it.
                        let mut best: (Coord, u32) = (nn_rect.distance_sq(&r), nn_id);
                        tree.query_within(&r, d, |rect, nn| {
                            let ds = rect.distance_sq(&r);
                            if ds < best.0 || (ds == best.0 && nn < best.1) {
                                best = (ds, nn);
                            }
                        });
                        let (ds, nn) = best;
                        out(NearestNeighbor {
                            outer: id,
                            inner: nn,
                            distance: ds.sqrt(),
                        });
                    }
                }
            }),
        &input,
    )?;

    // ---- Round 3: global minimum per outer id --------------------------
    let mut result: Vec<NearestNeighbor> = engine.run(
        JobSpec::new("ann-round3-aggregate")
            .reducers(engine_partitions(outer.len()))
            .map(|nn: &NearestNeighbor, emit| emit(nn.outer, *nn))
            .partition(|&k: &u32, n| k as usize % n)
            .reduce(|_: &u32, candidates: &[NearestNeighbor], out| {
                let best = candidates
                    .iter()
                    .min_by(|a, b| {
                        a.distance
                            .total_cmp(&b.distance)
                            .then(a.inner.cmp(&b.inner))
                    })
                    .expect("at least one candidate per group");
                out(*best);
            }),
        &locals,
    )?;
    result.sort_by_key(|nn| nn.outer);
    debug_assert_eq!(result.len(), outer.len(), "every outer rectangle resolves");
    Ok(result)
}

impl mwsj_mapreduce::RecordSize for NearestNeighbor {
    fn size_bytes(&self) -> usize {
        4 + 4 + 8
    }
}

fn engine_partitions(n: usize) -> usize {
    n.clamp(1, 64)
}

/// A round-1/2 shuffle record: an outer or inner rectangle with its id.
#[derive(Clone, Copy)]
enum Record {
    Outer(u32, Rect),
    Inner(u32, Rect),
}

impl mwsj_mapreduce::RecordSize for Record {
    fn size_bytes(&self) -> usize {
        1 + 4 + 32
    }
}

/// Outer rectangles at a reducer, as `(id, rect)`.
type OuterList = Vec<(u32, Rect)>;
/// Inner rectangles at a reducer, shaped for R-tree bulk loading.
type InnerList = Vec<(Rect, u32)>;

/// Splits reducer input into `(outer, inner)` lists.
fn partition_records(values: &[Record]) -> (OuterList, InnerList) {
    let mut outers = Vec::new();
    let mut inners = Vec::new();
    for &v in values {
        match v {
            Record::Outer(id, r) => outers.push((id, r)),
            Record::Inner(id, r) => inners.push((r, id)),
        }
    }
    (outers, inners)
}

/// Computes the k-nearest-neighbor join: for every outer rectangle, its
/// `k` nearest inner rectangles (fewer when `|inner| < k`), each inner
/// list sorted by `(distance, inner id)`. `k = 1` degenerates to
/// [`ann_join`]. Same three-round scheme, with the round-1 bound taken at
/// the k-th local neighbor.
///
/// # Panics
/// Panics if any rectangle lies outside the cluster space or `k == 0`, or
/// — under a fault plan — if a job fails outright (use [`try_knn_join`]).
#[must_use]
pub fn knn_join(
    cluster: &Cluster,
    outer: &[Rect],
    inner: &[Rect],
    k: usize,
) -> Vec<Vec<NearestNeighbor>> {
    try_knn_join(cluster, outer, inner, k).unwrap_or_else(|e| panic!("{e}"))
}

/// Like [`knn_join`], surfacing failed jobs as a [`JoinError`] instead of
/// panicking.
///
/// # Errors
/// [`JoinError::Job`] when a map-reduce job exhausts its attempt budget
/// under a fault plan.
///
/// # Panics
/// Panics if any rectangle lies outside the cluster space or `k == 0`.
pub fn try_knn_join(
    cluster: &Cluster,
    outer: &[Rect],
    inner: &[Rect],
    k: usize,
) -> Result<Vec<Vec<NearestNeighbor>>, JoinError> {
    assert!(k > 0, "k must be positive");
    let grid = cluster.grid();
    let engine = cluster.engine();
    let extent = grid.extent();
    for r in outer.iter().chain(inner) {
        assert!(
            extent.contains_rect(r),
            "rectangle outside the cluster space"
        );
    }
    if inner.is_empty() || outer.is_empty() {
        return Ok(vec![Vec::new(); outer.len()]);
    }
    engine.reset_metrics();
    let diag = extent.diagonal();

    let mut input: Vec<Record> = Vec::with_capacity(outer.len() + inner.len());
    input.extend(
        outer
            .iter()
            .enumerate()
            .map(|(i, r)| Record::Outer(i as u32, *r)),
    );
    input.extend(
        inner
            .iter()
            .enumerate()
            .map(|(i, r)| Record::Inner(i as u32, *r)),
    );

    // ---- Round 1: k-th-neighbor candidate bounds ----------------------
    let bounds: Vec<(u32, Coord)> = engine.run(
        JobSpec::new("knn-round1-candidates")
            .reducers(grid.num_cells() as usize)
            .map(|record: &Record, emit| match record {
                Record::Outer(id, r) => emit(grid.cell_of(r).0, Record::Outer(*id, *r)),
                Record::Inner(id, r) => {
                    for cell in grid.split_cells(r) {
                        emit(cell.0, Record::Inner(*id, *r));
                    }
                }
            })
            .partition(|&kk: &u32, _| kk as usize)
            .reduce(|_: &u32, values: &[Record], out| {
                let (outers, inners) = partition_records(values);
                let tree = RTree::bulk_load(inners);
                let tree = tree.view();
                for (id, r) in outers {
                    let knn = tree.k_nearest(&r, k);
                    // A valid bound needs k local neighbors; otherwise the
                    // true k-th neighbor may be anywhere.
                    let ub = if knn.len() == k { knn[k - 1].2 } else { diag };
                    out((id, ub));
                }
            }),
        &input,
    )?;

    // ---- Round 2: local k-best lists -----------------------------------
    let ub_of: Vec<Coord> = {
        let mut v = vec![diag; outer.len()];
        for &(id, ub) in &bounds {
            v[id as usize] = ub;
        }
        v
    };
    let locals: Vec<NearestNeighbor> = engine.run(
        JobSpec::new("knn-round2-verify")
            .reducers(grid.num_cells() as usize)
            .map(|record: &Record, emit| match record {
                Record::Outer(id, r) => {
                    let reach = r
                        .enlarge(ub_of[*id as usize])
                        .intersection(&extent)
                        .expect("outer rectangle inside the space");
                    for cell in grid.split_cells(&reach) {
                        emit(cell.0, Record::Outer(*id, *r));
                    }
                }
                Record::Inner(id, r) => {
                    for cell in grid.split_cells(r) {
                        emit(cell.0, Record::Inner(*id, *r));
                    }
                }
            })
            .partition(|&kk: &u32, _| kk as usize)
            .reduce(|_: &u32, values: &[Record], out| {
                let (outers, inners) = partition_records(values);
                if inners.is_empty() {
                    return;
                }
                let tree = RTree::bulk_load(inners);
                let tree = tree.view();
                for (id, r) in outers {
                    for nn in local_k_best(tree, &r, k) {
                        out(NearestNeighbor {
                            outer: id,
                            inner: nn.1,
                            distance: nn.0.sqrt(),
                        });
                    }
                }
            }),
        &input,
    )?;

    // ---- Round 3: global top-k per outer id ----------------------------
    let merged: Vec<(u32, Vec<NearestNeighbor>)> = engine.run(
        JobSpec::new("knn-round3-aggregate")
            .reducers(engine_partitions(outer.len()))
            .map(|nn: &NearestNeighbor, emit| emit(nn.outer, *nn))
            .partition(|&kk: &u32, n| kk as usize % n)
            .reduce(|&oid: &u32, candidates: &[NearestNeighbor], out| {
                // The same inner can be reported by several reducers.
                let mut candidates = candidates.to_vec();
                candidates.sort_unstable_by(|a, b| {
                    a.distance
                        .total_cmp(&b.distance)
                        .then(a.inner.cmp(&b.inner))
                });
                candidates.dedup_by_key(|nn| nn.inner);
                // Deduping by id after the (distance, id) sort can reorder
                // only equal-id entries (same distance); re-sort is
                // unnecessary.
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

/// The local top-k by `(distance², inner id)`: exact even under the
/// sqrt-rounding of the k-th distance, by unioning the tree's k-nearest
/// with the ≤ d_k ball.
fn local_k_best(tree: PackedRTree<'_>, r: &Rect, k: usize) -> Vec<(Coord, u32)> {
    let knn = tree.k_nearest(r, k);
    let Some(&(_, _, d_k)) = knn.last() else {
        return Vec::new();
    };
    let mut cands: Vec<(Coord, u32)> = knn
        .iter()
        .map(|&(rect, id, _)| (rect.distance_sq(r), id))
        .collect();
    tree.query_within(r, d_k, |rect, id| {
        cands.push((rect.distance_sq(r), id));
    });
    cands.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    cands.dedup_by_key(|c| c.1);
    // dedup_by_key only merges adjacent duplicates; equal ids always have
    // equal distances here, so adjacency holds after the sort.
    cands.truncate(k);
    cands
}

/// Reference kNN implementation: brute-force scan.
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
            all.sort_unstable_by(|a, b| {
                a.distance
                    .total_cmp(&b.distance)
                    .then(a.inner.cmp(&b.inner))
            });
            all.truncate(k);
            all
        })
        .collect()
}

/// Reference implementation: brute-force scan. Exact, O(|outer|·|inner|).
#[must_use]
pub fn ann_brute_force(outer: &[Rect], inner: &[Rect]) -> Vec<NearestNeighbor> {
    if inner.is_empty() {
        return Vec::new();
    }
    outer
        .iter()
        .enumerate()
        .map(|(oid, o)| {
            let (iid, d) = inner
                .iter()
                .enumerate()
                .map(|(i, r)| (i as u32, o.distance(r)))
                .min_by(|(i1, d1), (i2, d2)| d1.total_cmp(d2).then(i1.cmp(i2)))
                .expect("non-empty inner");
            NearestNeighbor {
                outer: oid as u32,
                inner: iid,
                distance: d,
            }
        })
        .collect()
}
