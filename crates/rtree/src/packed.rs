//! The R-tree's word layout, and every query over it.
//!
//! A bulk-loaded tree *is* two plain `u64` word arrays — one for the
//! leaf-packed entries, one for the nodes: entries in leaf-pack order, each
//! level's nodes contiguous, children before parents, the root last.
//! [`crate::RTree`] owns the arrays STR bulk load writes;
//! [`PackedRTree`] borrows them and answers every query in place:
//! coordinates are read back with `f64::from_bits` on the fly.
//! [`PackedRTree::new`] validates words from elsewhere before borrowing
//! them.

use mwsj_geom::{Coord, Rect};

use crate::RTree;

/// Words per packed entry: four corner coordinates (IEEE bit patterns)
/// plus the `u32` payload widened to a word.
pub const ENTRY_WORDS: usize = 5;

/// Words per packed node: four MBR corner coordinates, the node kind
/// (0 = leaf, 1 = inner) and the packed `start`/`end` range.
pub const NODE_WORDS: usize = 6;

pub(crate) const KIND_LEAF: u64 = 0;
pub(crate) const KIND_INNER: u64 = 1;

/// Copies a tree's `(entry_words, node_words)` out of it
/// ([`RTree::words`] borrows them instead).
///
/// Entry *i* occupies words `[5 i .. 5 i + 5]`: `min_x`, `min_y`, `max_x`,
/// `max_y` as `f64::to_bits`, then the payload. Node *j* occupies words
/// `[6 j .. 6 j + 6]`: the four MBR corners, the kind word and
/// `(start << 32) | end` (entry range for leaves, child-node range for
/// inner nodes). An empty tree is two empty arrays.
#[must_use]
pub fn pack(tree: &RTree) -> (Vec<u64>, Vec<u64>) {
    let (entries, nodes) = tree.words();
    (entries.to_vec(), nodes.to_vec())
}

/// Appends one node: its MBR, kind and `start..end` range.
pub(crate) fn push_node(nodes: &mut Vec<u64>, mbr: &Rect, kind: u64, start: usize, end: usize) {
    nodes.extend(mbr.bounds().map(f64::to_bits));
    nodes.push(kind);
    nodes.push(((start as u64) << 32) | end as u64);
}

#[inline]
fn bounds_at(words: &[u64], base: usize) -> [Coord; 4] {
    let corners: [u64; 4] = words[base..base + 4].try_into().expect("four words");
    corners.map(f64::from_bits)
}

/// The rectangle whose corners start at word `base`; `None` when they are
/// non-finite or inverted.
pub(crate) fn rect_at(words: &[u64], base: usize) -> Option<Rect> {
    let [min_x, min_y, max_x, max_y] = bounds_at(words, base);
    Rect::from_bounds(min_x, min_y, max_x, max_y)
}

fn node_range(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, (word & 0xFFFF_FFFF) as u32)
}

/// A read-only R-tree over borrowed packed words (see [`pack`]).
///
/// [`PackedRTree::new`] validates the whole structure once — word counts,
/// node kinds, range bounds, child ordering and corner finiteness — so
/// queries can trust every access afterwards.
#[derive(Debug, Clone, Copy)]
pub struct PackedRTree<'a> {
    entries: &'a [u64],
    nodes: &'a [u64],
}

impl<'a> PackedRTree<'a> {
    /// Validates packed word arrays and wraps them as a queryable tree.
    ///
    /// # Errors
    /// Describes the first structural defect found: truncated arrays, a
    /// node/entry count mismatch, an unknown node kind, an out-of-bounds
    /// or inverted range, a child range that does not precede its node
    /// (which could cycle), or a non-finite/inverted rectangle.
    pub fn new(entries: &'a [u64], nodes: &'a [u64]) -> Result<Self, String> {
        if !entries.len().is_multiple_of(ENTRY_WORDS) {
            return Err(format!(
                "entry array length {} is not a multiple of {ENTRY_WORDS}",
                entries.len()
            ));
        }
        if !nodes.len().is_multiple_of(NODE_WORDS) {
            return Err(format!(
                "node array length {} is not a multiple of {NODE_WORDS}",
                nodes.len()
            ));
        }
        let num_entries = entries.len() / ENTRY_WORDS;
        let num_nodes = nodes.len() / NODE_WORDS;
        if (num_entries == 0) != (num_nodes == 0) {
            return Err(format!(
                "entry/node count mismatch: {num_entries} entries, {num_nodes} nodes"
            ));
        }
        for i in 0..num_entries {
            let base = i * ENTRY_WORDS;
            if rect_at(entries, base).is_none() {
                return Err(format!("entry {i}: non-finite or inverted rectangle"));
            }
            if entries[base + 4] > u64::from(u32::MAX) {
                return Err(format!("entry {i}: payload exceeds u32"));
            }
        }
        for j in 0..num_nodes {
            let base = j * NODE_WORDS;
            if rect_at(nodes, base).is_none() {
                return Err(format!("node {j}: non-finite or inverted MBR"));
            }
            let kind = nodes[base + 4];
            let (start, end) = node_range(nodes[base + 5]);
            let (start, end) = (start as usize, end as usize);
            if start >= end {
                return Err(format!("node {j}: empty or inverted range {start}..{end}"));
            }
            match kind {
                KIND_LEAF => {
                    if end > num_entries {
                        return Err(format!(
                            "node {j}: leaf range {start}..{end} exceeds {num_entries} entries"
                        ));
                    }
                }
                KIND_INNER => {
                    // Children must strictly precede their parent (the
                    // bulk-load invariant); this also rules out cycles.
                    if end > j {
                        return Err(format!(
                            "node {j}: child range {start}..{end} does not precede the node"
                        ));
                    }
                }
                k => return Err(format!("node {j}: unknown kind {k}")),
            }
        }
        Ok(Self { entries, nodes })
    }

    /// Wraps words bulk load just wrote, which hold by construction
    /// everything [`PackedRTree::new`] checks.
    pub(crate) fn from_bulk_loaded(entries: &'a [u64], nodes: &'a [u64]) -> Self {
        Self { entries, nodes }
    }

    /// Number of indexed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len() / ENTRY_WORDS
    }

    /// Whether the tree is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The root's node id; children precede parents, so it is the last.
    fn root(&self) -> Option<u32> {
        (self.nodes.len() / NODE_WORDS)
            .checked_sub(1)
            .map(|r| r as u32)
    }

    /// A node's `start..end` range and whether it indexes entries (a leaf)
    /// or child nodes.
    fn node_children(&self, node: u32) -> (std::ops::Range<u32>, bool) {
        let base = node as usize * NODE_WORDS;
        let (start, end) = node_range(self.nodes[base + 5]);
        (start..end, self.nodes[base + 4] == KIND_LEAF)
    }

    /// The `(rect, payload)` of entry `i` in storage (leaf-pack) order.
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    #[must_use]
    pub fn entry(&self, i: usize) -> (Rect, u32) {
        let base = i * ENTRY_WORDS;
        let rect = rect_at(self.entries, base).expect("validated at construction");
        (rect, self.entries[base + 4] as u32)
    }

    /// Iterates over all `(rect, payload)` entries in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (Rect, u32)> + '_ {
        (0..self.len()).map(|i| self.entry(i))
    }

    /// Calls `visit` for every entry whose rectangle lies within distance
    /// `d` (closed) of the probe rectangle. `d = 0` is the overlap query.
    pub fn query_within(&self, probe: &Rect, d: Coord, visit: impl FnMut(Rect, u32)) {
        self.query_within_scratch(probe, d, &mut Vec::new(), visit);
    }

    /// [`PackedRTree::query_within`] with a caller-owned traversal stack:
    /// probing in a loop reuses one buffer instead of allocating a stack
    /// per probe. The stack is cleared on entry.
    ///
    /// This is the workspace's one window/distance traversal; nodes are
    /// pruned and entries accepted by [`Rect::bounds_within`] on the stored
    /// corner words.
    pub fn query_within_scratch(
        &self,
        probe: &Rect,
        d: Coord,
        stack: &mut Vec<u32>,
        mut visit: impl FnMut(Rect, u32),
    ) {
        let Some(root) = self.root() else { return };
        let d_sq = d * d;
        stack.clear();
        stack.push(root);
        while let Some(node) = stack.pop() {
            if !probe.bounds_within(bounds_at(self.nodes, node as usize * NODE_WORDS), d_sq) {
                continue;
            }
            let (children, is_leaf) = self.node_children(node);
            if !is_leaf {
                stack.extend(children);
                continue;
            }
            for e in children {
                if probe.bounds_within(bounds_at(self.entries, e as usize * ENTRY_WORDS), d_sq) {
                    let (rect, payload) = self.entry(e as usize);
                    visit(rect, payload);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn empty_tree_packs_and_queries() {
        let tree = RTree::bulk_load(Vec::new());
        let (entries, nodes) = pack(&tree);
        assert!(entries.is_empty() && nodes.is_empty());
        let packed = PackedRTree::new(&entries, &nodes).unwrap();
        assert!(packed.is_empty());
        let mut stack = Vec::new();
        let mut hits = 0;
        packed.query_within_scratch(
            &Rect::new(0.0, 100.0, 50.0, 50.0),
            0.0,
            &mut stack,
            |_, _| hits += 1,
        );
        assert_eq!(hits, 0);
    }

    #[test]
    fn iter_yields_every_loaded_entry_once() {
        let items = random_rects(777, 3);
        let tree = RTree::bulk_load(items.clone());
        let (entries, nodes) = pack(&tree);
        let packed = PackedRTree::new(&entries, &nodes).unwrap();
        assert_eq!(packed.len(), items.len());
        let mut got: Vec<(Rect, u32)> = packed.iter().collect();
        got.sort_unstable_by_key(|&(_, id)| id);
        assert_eq!(got, items);
    }

    #[test]
    fn borrowed_view_answers_every_probe_like_a_linear_scan() {
        // Owned tree -> pack -> PackedRTree::new: the validated view over
        // copied words reports, at d == 0 and d > 0 and across leaf-count
        // boundaries, exactly the entries the brute-force filter keeps.
        for n in [1usize, 15, 16, 17, 255, 1000, 5000] {
            let items = random_rects(n, 40 + n as u64);
            let (entries, nodes) = pack(&RTree::bulk_load(items.clone()));
            let packed = PackedRTree::new(&entries, &nodes).unwrap();
            let mut rng = StdRng::seed_from_u64(900 + n as u64);
            let mut stack = Vec::new();
            for probe_no in 0..40 {
                let probe = Rect::new(
                    rng.random_range(0.0..900.0),
                    rng.random_range(100.0..1000.0),
                    rng.random_range(0.0..120.0),
                    rng.random_range(0.0..120.0),
                );
                let d = if probe_no % 2 == 0 {
                    0.0
                } else {
                    rng.random_range(0.0..90.0)
                };
                let mut got: Vec<(Rect, u32)> = Vec::new();
                packed.query_within_scratch(&probe, d, &mut stack, |r, id| got.push((r, id)));
                got.sort_unstable_by_key(|&(_, id)| id);
                let want: Vec<(Rect, u32)> = items
                    .iter()
                    .copied()
                    .filter(|(r, _)| r.within_distance(&probe, d))
                    .collect();
                assert_eq!(got, want, "n = {n}, probe {probe_no}, d = {d}");
            }
        }
    }

    #[test]
    fn validation_rejects_corrupt_words() {
        let tree = RTree::bulk_load(random_rects(100, 9));
        let (entries, nodes) = pack(&tree);
        assert!(PackedRTree::new(&entries, &nodes).is_ok());

        // Truncated arrays.
        assert!(PackedRTree::new(&entries[..entries.len() - 1], &nodes).is_err());
        assert!(PackedRTree::new(&entries, &nodes[..nodes.len() - 1]).is_err());
        // Entries without nodes (and vice versa).
        assert!(PackedRTree::new(&entries, &[]).is_err());
        assert!(PackedRTree::new(&[], &nodes).is_err());

        // Non-finite entry corner.
        let mut bad = entries.clone();
        bad[0] = f64::NAN.to_bits();
        assert!(PackedRTree::new(&bad, &nodes).is_err());
        // Inverted entry extent.
        let mut bad = entries.clone();
        bad.swap(0, 2);
        assert!(PackedRTree::new(&bad, &nodes).is_err());
        // Oversized payload.
        let mut bad = entries.clone();
        bad[4] = u64::from(u32::MAX) + 1;
        assert!(PackedRTree::new(&bad, &nodes).is_err());

        // Unknown node kind.
        let mut bad = nodes.clone();
        bad[4] = 7;
        assert!(PackedRTree::new(&entries, &bad).is_err());
        // Leaf range past the entries.
        let mut bad = nodes.clone();
        bad[5] = (u64::MAX << 32) | u64::MAX;
        assert!(PackedRTree::new(&entries, &bad).is_err());
        // Inner child range that does not precede its node.
        let last = nodes.len() - NODE_WORDS;
        let mut bad = nodes.clone();
        if bad[last + 4] == 1 {
            let count = (nodes.len() / NODE_WORDS) as u64;
            bad[last + 5] = ((count - 1) << 32) | count; // points at itself
            assert!(PackedRTree::new(&entries, &bad).is_err());
        }
        // Empty range.
        let mut bad = nodes.clone();
        bad[5] = 0;
        assert!(PackedRTree::new(&entries, &bad).is_err());
    }
}
