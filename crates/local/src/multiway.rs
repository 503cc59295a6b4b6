//! The references for the reducer-local multi-way join: find every tuple
//! (one rectangle per relation position) satisfying all of a query's
//! predicates.
//!
//! [`multiway_join`] runs [`crate::kernel::JoinKernel`], the join the
//! reducers use; jobs running many reducer groups build the kernel once
//! and call it directly. [`multiway_join_naive`] is an independent
//! recursive matcher — relations bound in a BFS order of the join graph,
//! each extension an index probe from the bound neighbor with the tightest
//! predicate, per-call R-trees, a fresh candidate `Vec` per probe — that
//! `mwsj_core::reference::in_memory_join` and the equivalence tests compare
//! the kernel against. [`brute_force_join`] is the
//! quadratic-or-worse oracle that validates both.

use mwsj_geom::Rect;
use mwsj_query::{Query, RelationId};
use mwsj_rtree::RTree;

use crate::kernel::JoinKernel;
use crate::LocalRect;

/// Finds every consistent full tuple over the local relations and calls
/// `emit` with one `(rect, id)` per relation position, in position order.
///
/// `relations[i]` holds the local rectangles of query position `i`.
///
/// Compiles a [`JoinKernel`] per call; callers joining many groups under
/// one query should build the kernel once and use
/// [`JoinKernel::execute`].
pub fn multiway_join(query: &Query, relations: &[Vec<LocalRect>], emit: impl FnMut(&[LocalRect])) {
    JoinKernel::new(query).execute(relations, emit);
}

/// The pre-kernel recursive matcher, kept as an independent reference:
/// same bind order and probe selection as the kernel, but resolved
/// dynamically per node with per-probe allocations. Emits the same tuple
/// set as [`multiway_join`] (candidate order within a probe differs — the
/// kernel reads swept pair lists where this matcher walks a tree, which is
/// what makes it an independent oracle).
pub fn multiway_join_naive(
    query: &Query,
    relations: &[Vec<LocalRect>],
    mut emit: impl FnMut(&[LocalRect]),
) {
    let n = query.num_relations();
    assert_eq!(
        relations.len(),
        n,
        "one rectangle set per relation position"
    );
    if relations.iter().any(Vec::is_empty) {
        return;
    }

    // Index every relation; payload = position in the input vector.
    let trees: Vec<RTree> = relations
        .iter()
        .map(|rel| {
            RTree::bulk_load(
                rel.iter()
                    .enumerate()
                    .map(|(i, (r, _))| (*r, i as u32))
                    .collect(),
            )
        })
        .collect();

    // Bind relations in BFS order from the smallest relation: each later
    // relation has at least one bound neighbor to probe from.
    let graph = query.graph();
    let start = (0..n)
        .min_by_key(|&i| relations[i].len())
        .map(|i| RelationId(i as u16))
        .expect("non-empty query");
    let order = graph.bfs_order(start);
    debug_assert_eq!(order.len(), n, "query graphs are connected");

    let mut assignment: Vec<Option<u32>> = vec![None; n];
    let mut tuple: Vec<LocalRect> = vec![(Rect::new(0.0, 0.0, 0.0, 0.0), 0); n];

    struct Ctx<'a, F> {
        graph: &'a mwsj_query::JoinGraph,
        relations: &'a [Vec<LocalRect>],
        trees: &'a [RTree],
        order: &'a [RelationId],
        emit: F,
    }

    fn recurse<F: FnMut(&[LocalRect])>(
        ctx: &mut Ctx<'_, F>,
        depth: usize,
        assignment: &mut Vec<Option<u32>>,
        tuple: &mut Vec<LocalRect>,
    ) {
        if depth == ctx.order.len() {
            (ctx.emit)(tuple);
            return;
        }
        let v = ctx.order[depth];
        if depth == 0 {
            // First relation: every rectangle is a seed.
            for (idx, &(rect, id)) in ctx.relations[v.index()].iter().enumerate() {
                assignment[v.index()] = Some(idx as u32);
                tuple[v.index()] = (rect, id);
                recurse(ctx, depth + 1, assignment, tuple);
            }
            assignment[v.index()] = None;
            return;
        }
        // Probe from the bound neighbor whose predicate is tightest (the
        // smallest distance parameter filters hardest).
        let probe = ctx
            .graph
            .neighbors(v)
            .iter()
            .filter(|(u, _, _)| assignment[u.index()].is_some())
            .min_by(|(_, p1, _), (_, p2, _)| p1.distance().total_cmp(&p2.distance()))
            .copied();
        let Some((u, pred, _)) = probe else {
            // Unreachable for connected queries: BFS order guarantees a
            // bound neighbor.
            unreachable!("BFS order leaves no relation without a bound neighbor");
        };
        let probe_rect = tuple[u.index()].0;
        // Collect candidate indices first (the tree probe borrows ctx).
        let mut candidates: Vec<u32> = Vec::new();
        ctx.trees[v.index()]
            .view()
            .query_within(&probe_rect, pred.distance(), |_, idx| candidates.push(idx));
        for idx in candidates {
            let (rect, id) = ctx.relations[v.index()][idx as usize];
            // Verify every predicate between v and all bound relations
            // (including parallel edges to u beyond the probe predicate).
            // `forward` orients asymmetric predicates: this entry lists v
            // as the triple's left side when forward is true.
            let ok =
                ctx.graph
                    .neighbors(v)
                    .iter()
                    .all(|&(w, p, forward)| match assignment[w.index()] {
                        Some(_) => p.eval_oriented(&rect, &tuple[w.index()].0, !forward),
                        None => true,
                    });
            if !ok {
                continue;
            }
            assignment[v.index()] = Some(idx);
            tuple[v.index()] = (rect, id);
            recurse(ctx, depth + 1, assignment, tuple);
            assignment[v.index()] = None;
        }
    }

    let mut ctx = Ctx {
        graph: &graph,
        relations,
        trees: &trees,
        order: &order,
        emit: &mut emit,
    };
    recurse(&mut ctx, 0, &mut assignment, &mut tuple);
}

/// Convenience wrapper collecting result tuples as id vectors (one id per
/// relation position).
#[must_use]
pub fn multiway_join_ids(query: &Query, relations: &[Vec<LocalRect>]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    multiway_join(query, relations, |tuple| {
        out.push(tuple.iter().map(|&(_, id)| id).collect());
    });
    out
}

/// [`multiway_join_ids`] over the naive reference matcher.
#[must_use]
pub fn multiway_join_ids_naive(query: &Query, relations: &[Vec<LocalRect>]) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    multiway_join_naive(query, relations, |tuple| {
        out.push(tuple.iter().map(|&(_, id)| id).collect());
    });
    out
}

/// Exhaustive nested-loop oracle: every combination of one rectangle per
/// relation is checked against all predicates. Exponential — tests only.
#[must_use]
pub fn brute_force_join(query: &Query, relations: &[Vec<LocalRect>]) -> Vec<Vec<u32>> {
    let n = query.num_relations();
    assert_eq!(relations.len(), n);
    if relations.iter().any(Vec::is_empty) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut indices = vec![0usize; n];
    'outer: loop {
        let tuple: Vec<Rect> = indices
            .iter()
            .enumerate()
            .map(|(rel, &i)| relations[rel][i].0)
            .collect();
        if query.satisfied_by(&tuple) {
            out.push(
                indices
                    .iter()
                    .enumerate()
                    .map(|(rel, &i)| relations[rel][i].1)
                    .collect(),
            );
        }
        // Odometer increment.
        for rel in (0..n).rev() {
            indices[rel] += 1;
            if indices[rel] < relations[rel].len() {
                continue 'outer;
            }
            indices[rel] = 0;
            if rel == 0 {
                break 'outer;
            }
        }
    }
    out
}

/// Sorts and dedups result tuples: the canonical order of every join output.
#[must_use]
pub fn normalized(mut tuples: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    tuples.sort();
    tuples.dedup();
    tuples
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_query::Query;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_relation(n: usize, seed: u64, side: f64) -> Vec<LocalRect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    Rect::new(
                        rng.random_range(0.0..300.0),
                        rng.random_range(side..300.0),
                        rng.random_range(0.0..side),
                        rng.random_range(0.0..side),
                    ),
                    i as u32,
                )
            })
            .collect()
    }

    fn chain3() -> Query {
        Query::builder()
            .overlap("R1", "R2")
            .overlap("R2", "R3")
            .build()
            .unwrap()
    }

    /// Both matchers against the brute-force oracle, and against each
    /// other.
    fn check_all(q: &Query, rels: &[Vec<LocalRect>]) {
        let want = normalized(brute_force_join(q, rels));
        assert_eq!(normalized(multiway_join_ids(q, rels)), want);
        assert_eq!(normalized(multiway_join_ids_naive(q, rels)), want);
    }

    #[test]
    fn matches_brute_force_overlap_chain() {
        let q = chain3();
        let rels = vec![
            random_relation(40, 1, 30.0),
            random_relation(40, 2, 30.0),
            random_relation(40, 3, 30.0),
        ];
        assert!(
            !brute_force_join(&q, &rels).is_empty(),
            "test should exercise non-empty output"
        );
        check_all(&q, &rels);
    }

    #[test]
    fn matches_brute_force_range_chain() {
        let q = Query::builder()
            .range("R1", "R2", 15.0)
            .range("R2", "R3", 15.0)
            .build()
            .unwrap();
        let rels = vec![
            random_relation(30, 4, 10.0),
            random_relation(30, 5, 10.0),
            random_relation(30, 6, 10.0),
        ];
        check_all(&q, &rels);
    }

    #[test]
    fn matches_brute_force_hybrid_chain4() {
        let q = Query::builder()
            .overlap("R1", "R2")
            .range("R2", "R3", 20.0)
            .overlap("R3", "R4")
            .build()
            .unwrap();
        let rels = vec![
            random_relation(20, 7, 25.0),
            random_relation(20, 8, 25.0),
            random_relation(20, 9, 25.0),
            random_relation(20, 10, 25.0),
        ];
        check_all(&q, &rels);
    }

    #[test]
    fn matches_brute_force_cycle() {
        let q = Query::builder()
            .overlap("A", "B")
            .overlap("B", "C")
            .overlap("C", "A")
            .build()
            .unwrap();
        let rels = vec![
            random_relation(30, 11, 40.0),
            random_relation(30, 12, 40.0),
            random_relation(30, 13, 40.0),
        ];
        check_all(&q, &rels);
    }

    #[test]
    fn parallel_edges_all_enforced() {
        // Overlap AND Range(5): both must hold -> equals plain overlap
        // intersected with the range condition.
        let q = Query::builder()
            .overlap("A", "B")
            .range("A", "B", 5.0)
            .build()
            .unwrap();
        let rels = vec![random_relation(50, 14, 20.0), random_relation(50, 15, 20.0)];
        check_all(&q, &rels);
    }

    #[test]
    fn empty_relation_gives_empty_result() {
        let q = chain3();
        let rels = vec![
            random_relation(10, 1, 20.0),
            Vec::new(),
            random_relation(10, 2, 20.0),
        ];
        assert!(multiway_join_ids(&q, &rels).is_empty());
        assert!(multiway_join_ids_naive(&q, &rels).is_empty());
    }

    #[test]
    fn no_duplicate_tuples_emitted() {
        let q = chain3();
        let rels = vec![
            random_relation(30, 21, 40.0),
            random_relation(30, 22, 40.0),
            random_relation(30, 23, 40.0),
        ];
        let got = multiway_join_ids(&q, &rels);
        let deduped = normalized(got.clone());
        assert_eq!(got.len(), deduped.len());
    }

    #[test]
    fn star_query_matches_oracle() {
        let q = Query::builder()
            .overlap("C", "L1")
            .overlap("C", "L2")
            .overlap("C", "L3")
            .build()
            .unwrap();
        let rels = vec![
            random_relation(15, 31, 50.0),
            random_relation(15, 32, 50.0),
            random_relation(15, 33, 50.0),
            random_relation(15, 34, 50.0),
        ];
        check_all(&q, &rels);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matcher_equals_oracle(
            a in proptest::collection::vec((0.0..100.0f64, 20.0..100.0f64, 0.0..25.0f64, 0.0..20.0f64), 1..15),
            b in proptest::collection::vec((0.0..100.0f64, 20.0..100.0f64, 0.0..25.0f64, 0.0..20.0f64), 1..15),
            c in proptest::collection::vec((0.0..100.0f64, 20.0..100.0f64, 0.0..25.0f64, 0.0..20.0f64), 1..15),
            d in 0.0..30.0f64,
        ) {
            let to_rel = |v: Vec<(f64, f64, f64, f64)>| -> Vec<LocalRect> {
                v.into_iter().enumerate()
                    .map(|(i, (x, y, l, b))| (Rect::new(x, y, l, b), i as u32))
                    .collect()
            };
            let rels = vec![to_rel(a), to_rel(b), to_rel(c)];
            let q = Query::builder()
                .overlap("R1", "R2")
                .range("R2", "R3", d)
                .build()
                .unwrap();
            let want = normalized(brute_force_join(&q, &rels));
            prop_assert_eq!(&normalized(multiway_join_ids(&q, &rels)), &want);
            prop_assert_eq!(normalized(multiway_join_ids_naive(&q, &rels)), want);
        }
    }
}
