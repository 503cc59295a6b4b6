use mwsj_geom::{Coord, Rect};

use crate::packed::{
    push_node, rect_at, PackedRTree, ENTRY_WORDS, KIND_INNER, KIND_LEAF, NODE_WORDS,
};
use crate::NODE_CAPACITY;

/// An immutable R-tree over `(Rect, u32)` entries, bulk-loaded with the
/// Sort-Tile-Recursive algorithm straight into the packed word layout of
/// [`crate::packed`].
///
/// The payload is a record id or a position, whatever the caller indexes
/// by. The tree owns its words; every query runs on the borrowed
/// [`PackedRTree`] that [`RTree::view`] returns.
#[derive(Debug, Clone)]
pub struct RTree {
    entries: Vec<u64>,
    nodes: Vec<u64>,
}

fn union_all(rects: impl Iterator<Item = Rect>) -> Rect {
    rects
        .reduce(|a, b| a.union(&b))
        .expect("a node has at least one child")
}

impl RTree {
    /// Bulk-loads a tree from `(rect, payload)` entries using STR packing.
    #[must_use]
    pub fn bulk_load(mut items: Vec<(Rect, u32)>) -> Self {
        let n = items.len();
        if n == 0 {
            return Self {
                entries: Vec::new(),
                nodes: Vec::new(),
            };
        }
        // STR: sort by center-x, tile into vertical slabs of sqrt(n/cap)
        // runs, sort each slab by center-y, pack leaves of NODE_CAPACITY.
        items.sort_unstable_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
        let leaf_count = n.div_ceil(NODE_CAPACITY);
        let slab_count = (leaf_count as f64).sqrt().ceil() as usize;
        for slab in items.chunks_mut(n.div_ceil(slab_count)) {
            slab.sort_unstable_by(|a, b| a.0.center().y.total_cmp(&b.0.center().y));
        }

        // Entries are stored in leaf-pack order: each leaf owns a
        // contiguous range, scanned sequentially at query time.
        let mut entries = Vec::with_capacity(n * ENTRY_WORDS);
        let mut nodes = Vec::with_capacity(2 * leaf_count * NODE_WORDS);
        for (leaf, chunk) in items.chunks(NODE_CAPACITY).enumerate() {
            for (rect, payload) in chunk {
                entries.extend(rect.bounds().map(f64::to_bits));
                entries.push(u64::from(*payload));
            }
            let start = leaf * NODE_CAPACITY;
            let mbr = union_all(chunk.iter().map(|(r, _)| *r));
            push_node(&mut nodes, &mbr, KIND_LEAF, start, start + chunk.len());
        }

        // Build upper levels by packing child MBRs in index order (children
        // are already spatially clustered by the STR pass). Each level is
        // appended contiguously, so children form consecutive id ranges and
        // the root is the last node.
        let mut level = 0..leaf_count;
        while level.len() > 1 {
            let next_start = nodes.len() / NODE_WORDS;
            for start in level.clone().step_by(NODE_CAPACITY) {
                let end = (start + NODE_CAPACITY).min(level.end);
                let mbr = union_all((start..end).map(|child| {
                    rect_at(&nodes, child * NODE_WORDS).expect("written from a rectangle")
                }));
                push_node(&mut nodes, &mbr, KIND_INNER, start, end);
            }
            level = next_start..nodes.len() / NODE_WORDS;
        }
        Self { entries, nodes }
    }

    /// The tree as a queryable borrowed view.
    #[must_use]
    pub fn view(&self) -> PackedRTree<'_> {
        PackedRTree::from_bulk_loaded(&self.entries, &self.nodes)
    }

    /// The `(entry_words, node_words)` of the packed layout, for writing
    /// the tree out as it is.
    #[must_use]
    pub fn words(&self) -> (&[u64], &[u64]) {
        (&self.entries, &self.nodes)
    }

    /// [`PackedRTree::query_within_scratch`] on [`RTree::view`].
    pub fn query_within_scratch(
        &self,
        probe: &Rect,
        d: Coord,
        stack: &mut Vec<u32>,
        visit: impl FnMut(Rect, u32),
    ) {
        self.view().query_within_scratch(probe, d, stack, visit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_rects(n: usize, seed: u64) -> Vec<(Rect, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let x = rng.random_range(0.0..1000.0);
                let y = rng.random_range(20.0..1000.0);
                let l = rng.random_range(0.0..40.0);
                let b = rng.random_range(0.0..20.0);
                (Rect::new(x, y, l, b), i as u32)
            })
            .collect()
    }

    fn brute_overlaps(items: &[(Rect, u32)], w: &Rect) -> Vec<u32> {
        let mut v: Vec<u32> = items
            .iter()
            .filter(|(r, _)| r.overlaps(w))
            .map(|&(_, i)| i)
            .collect();
        v.sort_unstable();
        v
    }

    fn brute_within(items: &[(Rect, u32)], w: &Rect, d: Coord) -> Vec<u32> {
        let mut v: Vec<u32> = items
            .iter()
            .filter(|(r, _)| r.within_distance(w, d))
            .map(|&(_, i)| i)
            .collect();
        v.sort_unstable();
        v
    }

    /// The sorted payloads the tree reports within `d` of `w`.
    fn within(tree: &RTree, w: &Rect, d: Coord) -> Vec<u32> {
        let mut got = Vec::new();
        tree.view().query_within(w, d, |_, i| got.push(i));
        got.sort_unstable();
        got
    }

    #[test]
    fn empty_tree_queries() {
        let t = RTree::bulk_load(Vec::new());
        assert!(t.view().is_empty());
        assert_eq!(t.view().len(), 0);
        assert!(within(&t, &Rect::new(0.0, 10.0, 10.0, 10.0), 0.0).is_empty());
    }

    #[test]
    fn single_entry() {
        let t = RTree::bulk_load(vec![(Rect::new(5.0, 10.0, 2.0, 2.0), 42)]);
        assert_eq!(t.view().len(), 1);
        assert_eq!(within(&t, &Rect::new(6.0, 9.0, 1.0, 1.0), 0.0), vec![42]);
        assert!(within(&t, &Rect::new(20.0, 9.0, 1.0, 1.0), 0.0).is_empty());
    }

    #[test]
    fn overlap_query_matches_brute_force() {
        let items = random_rects(500, 7);
        let tree = RTree::bulk_load(items.clone());
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let w = Rect::new(
                rng.random_range(0.0..900.0),
                rng.random_range(100.0..1000.0),
                rng.random_range(0.0..150.0),
                rng.random_range(0.0..150.0),
            );
            assert_eq!(within(&tree, &w, 0.0), brute_overlaps(&items, &w));
        }
    }

    #[test]
    fn within_query_matches_brute_force() {
        let items = random_rects(400, 11);
        let tree = RTree::bulk_load(items.clone());
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(2000 + seed);
            let w = Rect::new(
                rng.random_range(0.0..900.0),
                rng.random_range(100.0..1000.0),
                rng.random_range(0.0..100.0),
                rng.random_range(0.0..100.0),
            );
            let d = rng.random_range(0.0..80.0);
            assert_eq!(within(&tree, &w, d), brute_within(&items, &w, d));
        }
    }

    #[test]
    fn query_within_scratch_matches_fresh_stack_at_all_distances() {
        // With one stack reused across every probe, at d == 0 and d > 0,
        // the visits are exactly those of query_within, in the same order.
        let items = random_rects(400, 21);
        let tree = RTree::bulk_load(items.clone());
        let mut stack: Vec<u32> = Vec::new();
        let mut rng = StdRng::seed_from_u64(4100);
        for probe_no in 0..30 {
            let w = Rect::new(
                rng.random_range(0.0..900.0),
                rng.random_range(100.0..1000.0),
                rng.random_range(0.0..100.0),
                rng.random_range(0.0..100.0),
            );
            let d = if probe_no % 2 == 0 {
                0.0
            } else {
                rng.random_range(0.0..80.0)
            };
            let mut got = Vec::new();
            tree.query_within_scratch(&w, d, &mut stack, |_, i| got.push(i));
            let mut expect = Vec::new();
            tree.view().query_within(&w, d, |_, i| expect.push(i));
            assert_eq!(got, expect, "probe {probe_no} (d = {d})");
        }
    }

    #[test]
    fn duplicate_rectangles_are_all_returned() {
        let r = Rect::new(10.0, 20.0, 5.0, 5.0);
        let items: Vec<(Rect, u32)> = (0..40).map(|i| (r, i)).collect();
        let tree = RTree::bulk_load(items);
        assert_eq!(within(&tree, &r, 0.0).len(), 40);
    }

    #[test]
    fn large_tree_has_multiple_levels_and_stays_correct() {
        let items = random_rects(5000, 17);
        let tree = RTree::bulk_load(items.clone());
        let w = Rect::new(200.0, 800.0, 300.0, 300.0);
        assert_eq!(within(&tree, &w, 0.0), brute_overlaps(&items, &w));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_overlap_query_equals_scan(
            rects in proptest::collection::vec(
                (0.0..500.0f64, 50.0..500.0f64, 0.0..50.0f64, 0.0..50.0f64), 0..120),
            wx in 0.0..500.0f64, wy in 50.0..500.0f64, wl in 0.0..200.0f64, wb in 0.0..200.0f64,
        ) {
            let items: Vec<(Rect, u32)> = rects
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, l, b))| (Rect::new(x, y, l, b), i as u32))
                .collect();
            let w = Rect::new(wx, wy, wl, wb);
            let tree = RTree::bulk_load(items.clone());
            prop_assert_eq!(within(&tree, &w, 0.0), brute_overlaps(&items, &w));
        }

        #[test]
        fn prop_within_query_equals_scan(
            rects in proptest::collection::vec(
                (0.0..500.0f64, 50.0..500.0f64, 0.0..50.0f64, 0.0..50.0f64), 0..100),
            wx in 0.0..500.0f64, wy in 50.0..500.0f64, d in 0.0..100.0f64,
        ) {
            let items: Vec<(Rect, u32)> = rects
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, l, b))| (Rect::new(x, y, l, b), i as u32))
                .collect();
            let w = Rect::new(wx, wy, 10.0, 10.0);
            let tree = RTree::bulk_load(items.clone());
            prop_assert_eq!(within(&tree, &w, d), brute_within(&items, &w, d));
        }
    }
}
