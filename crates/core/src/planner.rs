//! Join-order planning for the 2-way cascade.
//!
//! §6.1's footnote assumes the cascade evaluates join conditions "in the
//! optimal order" without saying how to find it. This module provides a
//! classic sampling-based greedy planner: pairwise predicate selectivities
//! are estimated on small uniform samples, then conditions are ordered so
//! the estimated intermediate result stays minimal — start with the most
//! selective condition, repeatedly append the connected condition whose
//! estimated growth factor is smallest.
//!
//! Reordering conjuncts never changes the query's semantics (the result is
//! the same set of tuples), only the cascade's intermediate sizes.

use mwsj_geom::Rect;
use mwsj_query::{Query, Triple};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

/// Default number of rectangles sampled per relation for estimation.
pub const DEFAULT_SAMPLE: usize = 200;

/// Draws a seeded uniform sample of up to `sample_size` rectangles from
/// each relation — shared by the cascade-order planner and the cost-based
/// optimizer ([`crate::optimizer`]), so both see the same statistics for
/// the same seed.
pub(crate) fn sample_relations(
    relations: &[&[Rect]],
    sample_size: usize,
    seed: u64,
) -> Vec<Vec<Rect>> {
    let mut rng = StdRng::seed_from_u64(seed);
    relations
        .iter()
        .map(|rel| {
            let mut idx: Vec<usize> = (0..rel.len()).collect();
            idx.shuffle(&mut rng);
            idx.truncate(sample_size);
            idx.into_iter().map(|i| rel[i]).collect()
        })
        .collect()
}

/// Estimates the selectivity of one triple on samples of its two
/// relations: the fraction of sampled pairs satisfying the predicate.
pub(crate) fn estimate_selectivity(t: &Triple, samples: &[Vec<Rect>]) -> f64 {
    let left = &samples[t.left.index()];
    let right = &samples[t.right.index()];
    if left.is_empty() || right.is_empty() {
        return 0.0;
    }
    let mut hits = 0usize;
    for a in left {
        for b in right {
            if t.predicate.eval(a, b) {
                hits += 1;
            }
        }
    }
    hits as f64 / (left.len() * right.len()) as f64
}

/// Returns a query with the same conditions reordered for the cascade:
/// greedy smallest-estimated-intermediate-first, keeping every prefix
/// connected (the cascade requires each step to touch a bound relation).
///
/// `relations[i]` is the dataset bound to position `i`; selectivities are
/// estimated on a seeded uniform sample of `sample_size` rectangles per
/// relation.
///
/// ```
/// use mwsj_core::planner::optimize_cascade_order;
/// use mwsj_geom::Rect;
/// use mwsj_query::Query;
///
/// let q = Query::parse("A ov B and B ov C").unwrap();
/// let a = vec![Rect::new(0.0, 10.0, 5.0, 5.0)];
/// let b = vec![Rect::new(4.0, 10.0, 5.0, 5.0)];
/// let c = vec![Rect::new(8.0, 10.0, 5.0, 5.0)];
/// let planned = optimize_cascade_order(&q, &[&a, &b, &c], 10, 7);
/// assert_eq!(planned.triples().len(), q.triples().len());
/// ```
#[must_use]
pub fn optimize_cascade_order(
    query: &Query,
    relations: &[&[Rect]],
    sample_size: usize,
    seed: u64,
) -> Query {
    assert_eq!(relations.len(), query.num_relations());
    let samples = sample_relations(relations, sample_size, seed);
    let selectivity = |t: &Triple| estimate_selectivity(t, &samples);

    // Estimated output cardinality of each condition alone.
    let mut remaining: Vec<(Triple, f64)> = query
        .triples()
        .iter()
        .map(|t| {
            let sel = selectivity(t);
            let card = sel
                * relations[t.left.index()].len() as f64
                * relations[t.right.index()].len() as f64;
            (*t, card)
        })
        .collect();

    let mut ordered: Vec<Triple> = Vec::with_capacity(remaining.len());
    let mut bound = vec![false; query.num_relations()];
    while !remaining.is_empty() {
        let pick = if ordered.is_empty() {
            // Cheapest standalone join first.
            remaining
                .iter()
                .enumerate()
                .min_by(|(_, (_, a)), (_, (_, b))| a.partial_cmp(b).expect("finite"))
                .map(|(i, _)| i)
                .expect("non-empty")
        } else {
            // Among the conditions touching the bound set, pick the one
            // with the smallest growth: both-bound filters (growth <= 1)
            // first, then the smallest selectivity x new-relation-size.
            remaining
                .iter()
                .enumerate()
                .filter(|(_, (t, _))| bound[t.left.index()] || bound[t.right.index()])
                .min_by(|(_, (t1, _)), (_, (t2, _))| {
                    let growth = |t: &Triple| {
                        let both = bound[t.left.index()] && bound[t.right.index()];
                        if both {
                            // A filter can only shrink the intermediate.
                            0.0
                        } else {
                            let new = if bound[t.left.index()] {
                                t.right
                            } else {
                                t.left
                            };
                            selectivity(t) * relations[new.index()].len() as f64
                        }
                    };
                    growth(t1).partial_cmp(&growth(t2)).expect("finite")
                })
                .map(|(i, _)| i)
                .expect("connected query graph")
        };
        let (t, _) = remaining.remove(pick);
        bound[t.left.index()] = true;
        bound[t.right.index()] = true;
        ordered.push(t);
    }

    // Rebuild the query with the conditions in the new order. Declaring
    // every relation first pins the original position numbering, so the
    // caller's positional dataset bindings stay valid.
    let mut builder = Query::builder();
    for r in query.relations() {
        builder = builder.declare(query.name(r));
    }
    for t in &ordered {
        builder = builder.condition(t.predicate, query.name(t.left), query.name(t.right));
    }
    builder
        .build()
        .expect("reordering a valid query keeps it valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use rand::Rng;

    fn relation(n: usize, seed: u64, side: f64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.random_range(0.0..1000.0 - side);
                let y = rng.random_range(side..1000.0);
                Rect::new(
                    x,
                    y,
                    rng.random_range(0.0..side),
                    rng.random_range(0.0..side),
                )
            })
            .collect()
    }

    #[test]
    fn reordering_preserves_semantics() {
        let q = Query::parse("A ov B and B ra(30) C and C ov D").unwrap();
        let a = relation(60, 1, 40.0);
        let b = relation(60, 2, 40.0);
        let c = relation(60, 3, 40.0);
        let d = relation(60, 4, 40.0);
        let planned = optimize_cascade_order(&q, &[&a, &b, &c, &d], 30, 9);
        assert_eq!(planned.triples().len(), 3);
        // Same relation names in the same positions.
        for i in 0..4u16 {
            assert_eq!(
                planned.name(mwsj_query::RelationId(i)),
                q.name(mwsj_query::RelationId(i))
            );
        }
        assert_eq!(
            reference::in_memory_join(&planned, &[&a, &b, &c, &d]),
            reference::in_memory_join(&q, &[&a, &b, &c, &d])
        );
    }

    #[test]
    fn planner_starts_with_the_most_selective_condition() {
        // B-C barely joins (tiny rectangles far apart classes); A-B joins a
        // lot (big rectangles). The planner must start with B-C.
        let a = relation(80, 11, 120.0);
        let b = relation(80, 12, 120.0);
        let c = vec![Rect::new(0.5, 1.0, 0.2, 0.2); 80]; // far corner, tiny
        let q = Query::parse("A ov B and B ov C").unwrap();
        let planned = optimize_cascade_order(&q, &[&a, &b, &c], 60, 5);
        let first = planned.triples()[0];
        assert_eq!(
            (planned.name(first.left), planned.name(first.right)),
            ("B", "C"),
            "planned order: {planned}"
        );
    }

    #[test]
    fn sample_larger_than_relation_is_fine() {
        let q = Query::parse("A ov B").unwrap();
        let a = relation(5, 21, 40.0);
        let b = relation(5, 22, 40.0);
        let planned = optimize_cascade_order(&q, &[&a, &b], 1_000, 1);
        assert_eq!(planned.triples().len(), 1);
    }
}
