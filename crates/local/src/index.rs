//! The reducer group's index: one per group, probed by marking and join.
//!
//! Everything a reducer does with its group — C-Rep's arc-consistency
//! marking, the multi-way join — asks one question of one relation at a
//! time: which of its rectangles lie within `d` of this one? A
//! [`GroupIndex`] answers it for every relation of the group, indexing a
//! relation the first time it is probed and never again, so the round-1
//! reducer that marks and then joins the same group pays for one index.
//!
//! Relations below [`LINEAR_SCAN_THRESHOLD`] are not tree-indexed at all:
//! their corner coordinates are copied into flat arrays and probed by a
//! linear scan. Larger relations get an STR bulk-loaded R-tree. Both accept
//! a candidate by [`Rect::bounds_within`], so which one served a probe is
//! invisible in the result set (only the order of the visits differs).

use std::cell::OnceCell;

use mwsj_geom::{Coord, Rect};
use mwsj_rtree::RTree;

use crate::LocalRect;

/// Relations smaller than this are probed by a linear scan over coordinate
/// arrays instead of an R-tree. At `NODE_CAPACITY = 16` a tree this size
/// is 1-2 leaves plus a root: walking it costs more than scanning four
/// flat `f64` arrays (see the `micro_local_join` bench).
pub const LINEAR_SCAN_THRESHOLD: usize = 48;

/// One relation's index; the payload of either form is the rectangle's
/// position in the relation.
enum RelationIndex {
    /// Structure-of-arrays corners, `[min_x.. | min_y.. | max_x.. | max_y..]`
    /// in one allocation: the scan reads each quarter sequentially.
    Scan(Vec<Coord>),
    Tree(RTree),
}

impl RelationIndex {
    fn build(rel: &[LocalRect]) -> Self {
        if rel.len() < LINEAR_SCAN_THRESHOLD {
            let corner = |k: usize| rel.iter().map(move |(r, _)| r.bounds()[k]);
            Self::Scan((0..4).flat_map(corner).collect())
        } else {
            Self::Tree(RTree::bulk_load(
                rel.iter().map(|&(r, _)| r).zip(0u32..).collect(),
            ))
        }
    }
}

/// The local relations of one reducer group, with a lazily built index
/// per relation.
pub struct GroupIndex<'a> {
    relations: &'a [Vec<LocalRect>],
    indexes: Vec<OnceCell<RelationIndex>>,
}

impl<'a> GroupIndex<'a> {
    /// Wraps a group; `relations[i]` holds the local rectangles of query
    /// position `i`. Nothing is indexed until it is probed.
    #[must_use]
    pub fn new(relations: &'a [Vec<LocalRect>]) -> Self {
        Self {
            relations,
            indexes: relations.iter().map(|_| OnceCell::new()).collect(),
        }
    }

    /// The relations the index was built over.
    #[must_use]
    pub fn relations(&self) -> &'a [Vec<LocalRect>] {
        self.relations
    }

    /// Calls `visit(position, &(rect, id))` for every rectangle of relation
    /// position `w` within distance `d` (closed) of the probe; `d = 0` is
    /// the overlap query. `stack` is R-tree traversal scratch, reusable
    /// across probes and relations.
    pub fn probe(
        &self,
        w: usize,
        probe: &Rect,
        d: Coord,
        stack: &mut Vec<u32>,
        mut visit: impl FnMut(usize, &LocalRect),
    ) {
        let rel = &self.relations[w];
        match self.indexes[w].get_or_init(|| RelationIndex::build(rel)) {
            RelationIndex::Scan(corners) => {
                let d_sq = d * d;
                let (min_x, rest) = corners.split_at(rel.len());
                let (min_y, rest) = rest.split_at(rel.len());
                let (max_x, max_y) = rest.split_at(rel.len());
                for (i, entry) in rel.iter().enumerate() {
                    if probe.bounds_within([min_x[i], min_y[i], max_x[i], max_y[i]], d_sq) {
                        visit(i, entry);
                    }
                }
            }
            RelationIndex::Tree(tree) => {
                tree.query_within_scratch(probe, d, stack, |_, i| {
                    visit(i as usize, &rel[i as usize]);
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn scan_and_tree_report_the_brute_force_set_with_positions() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut relation = |n: usize| -> Vec<LocalRect> {
            (0..n)
                .map(|i| {
                    let x = rng.random_range(0.0..300.0);
                    let y = rng.random_range(30.0..300.0);
                    let (l, b) = (rng.random_range(0.0..30.0), rng.random_range(0.0..30.0));
                    // Ids are not positions: the index must report both.
                    (Rect::new(x, y, l, b), 1_000 + i as u32)
                })
                .collect()
        };
        let rels = vec![
            relation(LINEAR_SCAN_THRESHOLD - 1),
            relation(LINEAR_SCAN_THRESHOLD),
            relation(400),
            Vec::new(),
        ];
        let index = GroupIndex::new(&rels);
        let mut stack = Vec::new();
        for (w, rel) in rels.iter().enumerate() {
            for (probe, _) in &rels[2][..40] {
                for d in [0.0, 12.5] {
                    let mut got = Vec::new();
                    index.probe(w, probe, d, &mut stack, |pos, &entry| {
                        assert_eq!(rel[pos], entry);
                        got.push(pos);
                    });
                    got.sort_unstable();
                    let want: Vec<usize> = (0..rel.len())
                        .filter(|&i| rel[i].0.within_distance(probe, d))
                        .collect();
                    assert_eq!(got, want, "relation {w}, d = {d}");
                }
            }
        }
    }
}
