//! In-memory reference implementation: the ground truth every distributed
//! algorithm must reproduce.
//!
//! [`in_memory_join`] runs the (well-tested) local multi-way matcher over
//! the *entire* datasets with no partitioning, no shuffle and no duplicate
//! avoidance — a single-machine oracle. The test suites assert that 2-way
//! Cascade, All-Replicate, C-Rep and C-Rep-L all return exactly this
//! result.
//!
//! Deliberately runs the *naive* recursive matcher, not the precompiled
//! kernel the distributed reducers use: the matcher walks an R-tree per
//! relation where the kernel sweeps pair lists, so the oracle and the
//! implementation under test share only the `Rect::bounds_within` test.

use mwsj_geom::Rect;
use mwsj_local::multiway;
use mwsj_query::Query;

/// Computes the full join result in memory. Output tuples are sorted and
/// duplicate-free, matching the [`crate::JoinOutput::tuples`] convention.
#[must_use]
pub fn in_memory_join(query: &Query, relations: &[&[Rect]]) -> Vec<Vec<u32>> {
    let local: Vec<Vec<mwsj_local::LocalRect>> = relations
        .iter()
        .map(|rel| {
            rel.iter()
                .enumerate()
                .map(|(i, r)| (*r, i as u32))
                .collect()
        })
        .collect();
    multiway::normalized(multiway::multiway_join_ids_naive(query, &local))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_chain() {
        let q = Query::parse("a ov b and b ov c").unwrap();
        let a = vec![Rect::new(0.0, 10.0, 5.0, 5.0)];
        let b = vec![
            Rect::new(4.0, 10.0, 5.0, 5.0),
            Rect::new(50.0, 10.0, 5.0, 5.0),
        ];
        let c = vec![Rect::new(8.0, 10.0, 5.0, 5.0)];
        assert_eq!(in_memory_join(&q, &[&a, &b, &c]), vec![vec![0, 0, 0]]);
    }

    #[test]
    fn self_join_positions_share_data() {
        let q = Query::parse("a ov b").unwrap();
        let r = vec![
            Rect::new(0.0, 10.0, 5.0, 5.0),
            Rect::new(4.0, 10.0, 5.0, 5.0),
        ];
        let got = in_memory_join(&q, &[&r, &r]);
        // Both orders and both self-pairs.
        assert_eq!(got, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }
}
