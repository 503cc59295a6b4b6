//! The Shares-style *hypercube* join (Afrati/Ullman; Kimmett et al.).
//!
//! Instead of partitioning *space* (the paper's grid), the reducers form a
//! hypercube with one dimension per query position: dimension `i` has
//! `s_i` coordinates ("shares"), and reducer `(c_0, .., c_{n-1})` is
//! responsible for exactly the candidate tuples whose member of relation
//! `i` hashes to `c_i`. The map phase hashes each rectangle on its *own*
//! dimension and replicates it across all combinations of the other
//! dimensions; the reduce phase runs the precompiled [`JoinKernel`] over
//! whatever arrived.
//!
//! Two properties make this attractive as a fifth algorithm:
//!
//! - **Exactly-once delivery.** A candidate tuple `(t_0, .., t_{n-1})`
//!   meets at precisely one reducer — the cell `(h_0(t_0), ..,
//!   h_{n-1}(t_{n-1}))` — so no designated-cell duplicate filter is
//!   needed, and the output is trivially equal to the oracle's.
//! - **Predicate-independent replication.** Each rectangle of relation
//!   `i` is sent to exactly `Π_{j≠i} s_j` reducers regardless of its
//!   size, position, or the query's range distance `d` — the exact
//!   opposite of the 4th-quadrant schemes, whose replication grows with
//!   `d` and rectangle extent.
//!
//! The price is that *every* pair of rectangles from different relations
//! is a candidate at some reducer: local pruning only happens inside the
//! kernel. The [`crate::optimizer`] weighs this against the spatial
//! algorithms per query.

use mwsj_mapreduce::Fnv64;
use mwsj_query::Query;

use super::{replicate_join, AlgoCtx, Algorithm, Inputs, JoinJob, TupleFilter};
use crate::{JoinError, JoinOutput, TaggedRect};

/// Derives the share vector `s` for relation cardinalities `sizes` and a
/// reducer budget `k`: the deterministic exact optimum of the Shares
/// load model, i.e. the vector minimizing the expected per-reducer input
///
/// ```text
///   load(s) = Σ_i n_i / s_i          subject to   Π_i s_i ≤ k
/// ```
///
/// with ties broken first by total communication `Σ_i n_i · Π_{j≠i} s_j`
/// (equivalently: by a smaller hypercube, since comm = load · Πs), then
/// lexicographically — so the result is a pure function of its inputs
/// and safe to pin in golden tests. Found by exhaustive enumeration of
/// the (small) lattice of share vectors with product ≤ `k`.
pub(crate) fn derive_shares(sizes: &[u64], reducers: u32) -> Vec<u32> {
    let n = sizes.len();
    let k = u64::from(reducers.max(1));
    let mut best: Option<(u128, u128, Vec<u32>)> = None;
    let mut current = vec![1u32; n];

    // Recursive odometer over all share vectors with Π ≤ k. `comm_num`
    // accumulates Σ n_i · Π_{j≠i} s_j exactly; load(s) = comm_num / Πs is
    // compared as a fraction in u128 so no float round-off can make the
    // pick machine-dependent.
    fn recurse(
        sizes: &[u64],
        dim: usize,
        budget: u64,
        current: &mut Vec<u32>,
        best: &mut Option<(u128, u128, Vec<u32>)>,
    ) {
        if dim == sizes.len() {
            let product: u128 = current.iter().map(|&s| u128::from(s)).product();
            let comm: u128 = sizes
                .iter()
                .zip(current.iter())
                .map(|(&n, &s)| u128::from(n) * (product / u128::from(s)))
                .sum();
            // load = comm / product; compare (load, comm, vector).
            let better = match best {
                None => true,
                Some((b_comm, b_product, b_vec)) => {
                    let lhs = comm * *b_product;
                    let rhs = *b_comm * product;
                    lhs < rhs
                        || (lhs == rhs && (comm < *b_comm || (comm == *b_comm && current < b_vec)))
                }
            };
            if better {
                *best = Some((comm, product, current.clone()));
            }
            return;
        }
        let mut s = 1u64;
        while s <= budget {
            current[dim] = s as u32;
            recurse(sizes, dim + 1, budget / s, current, best);
            s += 1;
        }
        current[dim] = 1;
    }

    recurse(sizes, 0, k, &mut current, &mut best);
    best.map(|(_, _, v)| v).unwrap_or_default()
}

/// Row-major strides for linearizing a hypercube coordinate into a
/// single reduce key.
fn strides(shares: &[u32]) -> Vec<u32> {
    let mut strides = vec![1u32; shares.len()];
    for i in (0..shares.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * shares[i + 1];
    }
    strides
}

/// The hash placing a rectangle on its own hypercube dimension. Stable
/// across platforms and attempts (FNV-1a over the relation position and
/// record id), which keeps retried map tasks byte-identical.
fn own_coordinate(tr: &TaggedRect, share: u32) -> u32 {
    let mut h = Fnv64::new();
    h.write_u64(u64::from(tr.relation.index() as u32));
    h.write_u64(u64::from(tr.id));
    (h.finish() % u64::from(share.max(1))) as u32
}

pub(crate) fn run(
    ctx: &AlgoCtx<'_>,
    query: &Query,
    inputs: Inputs<'_>,
) -> Result<JoinOutput, JoinError> {
    let sizes: Vec<u64> = (0..inputs.len()).map(|p| inputs.size(p) as u64).collect();
    // The same derivation the optimizer's plan reports, so an auto run
    // and its pinned twin are byte-identical.
    let shares = derive_shares(&sizes, ctx.grid.num_cells());
    debug_assert_eq!(shares.len(), query.num_relations());
    let strides = strides(&shares);
    let job = JoinJob {
        name: "hypercube",
        algorithm: Algorithm::Hypercube,
        // The members of any joining tuple share exactly one hypercube
        // cell (their joint hash vector): each result is produced once.
        filter: TupleFilter::All,
        earlier: Vec::new(),
    };
    let read = |i| inputs.get(i);
    replicate_join(ctx, query, job, inputs.total(), read, |tr, emit| {
        let own = tr.relation.index();
        let coordinate = own_coordinate(tr, shares[own]);
        replica_keys(&shares, &strides, own, coordinate).for_each(emit);
    })
}

/// The reduce keys of every hypercube cell whose dimension-`own`
/// coordinate is `coordinate`: a counter over the other dimensions'
/// combinations, decoded in mixed radix with the last dimension fastest —
/// the order an odometer over them would visit, without its coordinate
/// vector.
fn replica_keys<'a>(
    shares: &'a [u32],
    strides: &'a [u32],
    own: usize,
    coordinate: u32,
) -> impl Iterator<Item = u32> + 'a {
    let combinations: u32 = shares.iter().product::<u32>() / shares[own];
    (0..combinations).map(move |mut rest| {
        let mut key = coordinate * strides[own];
        for dim in (0..shares.len()).rev().filter(|&dim| dim != own) {
            key += rest % shares[dim] * strides[dim];
            rest /= shares[dim];
        }
        key
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_follow_relation_sizes() {
        // Equal relations split the budget evenly.
        assert_eq!(derive_shares(&[1000, 1000, 1000], 64), vec![4, 4, 4]);
        // A dominant relation takes the larger share.
        let s = derive_shares(&[100_000, 1000, 1000], 64);
        assert!(s.iter().product::<u32>() <= 64);
        assert!(s[0] > s[1] && s[0] > s[2], "shares {s:?}");
        // Empty relations get share 1: replicating along their dimension
        // buys nothing.
        assert_eq!(derive_shares(&[1000, 0], 16), vec![16, 1]);
    }

    #[test]
    fn shares_are_deterministic() {
        let a = derive_shares(&[123, 456, 789], 60);
        let b = derive_shares(&[123, 456, 789], 60);
        assert_eq!(a, b);
        assert!(a.iter().product::<u32>() <= 60);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(strides(&[4, 4, 4]), vec![16, 4, 1]);
        assert_eq!(strides(&[2, 8]), vec![8, 1]);
    }

    #[test]
    fn replica_keys_fix_one_dimension_last_fastest() {
        // Shares (2, 3, 2), strides (6, 2, 1); a rectangle of dimension 1
        // at coordinate 2 reaches cells (c0, 2, c2), c2 fastest.
        let shares = [2, 3, 2];
        let keys: Vec<u32> = replica_keys(&shares, &strides(&shares), 1, 2).collect();
        assert_eq!(keys, vec![4, 5, 10, 11]);
        // One share per dimension: every record goes to cell 0 alone.
        assert_eq!(
            replica_keys(&[1, 1], &[1, 1], 0, 0).collect::<Vec<_>>(),
            vec![0]
        );
    }
}
