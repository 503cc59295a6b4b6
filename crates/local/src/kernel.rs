//! The precompiled, allocation-free multi-way join kernel.
//!
//! [`JoinKernel`] is the reducer-local join: a window-reduction
//! backtracking search in the spirit of Mamoulis & Papadias' multiway
//! spatial joins, structured for the reduce-phase hot loop.
//!
//! * **Precompiled plans.** The query's probe and verify edges are
//!   resolved once per start vertex by [`mwsj_query::JoinPlan`] (the bound
//!   set at depth `d` is exactly the first `d` relations of the BFS
//!   order), so the per-candidate loop never walks the join graph or an
//!   assignment array. Symmetric probe predicates are verified by the
//!   index probe itself and dropped from the verify lists.
//! * **Iterative stack, flat arena.** Recursion is replaced by an explicit
//!   depth cursor over one flat candidate buffer; each depth owns a range
//!   `[base, len)` of the buffer that is truncated on backtrack. No
//!   per-probe `Vec` — a probe appends to the arena and the frame records
//!   where its candidates start.
//! * **Candidates come from a probe function.** The search itself is
//!   [`JoinKernel::execute_seeded`]: depth-0 seeds plus a function that
//!   appends a relation's rectangles within `d` of a probe rectangle.
//!   Reducers pass a [`GroupIndex`] ([`JoinKernel::execute_on`]); the
//!   map-side join passes a forest of stored per-cell trees.
//! * **Thread-local scratch.** Arena, frames and memo live in one scratch
//!   struct per worker thread, reused across reducer groups: after the
//!   first group on a thread, the search itself allocates nothing (the
//!   group's index and whatever `emit` does still allocate).
//!
//! `multiway_join_naive` in [`crate::multiway`] is the independent
//! recursive matcher the tests compare the kernel's tuple set against.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use mwsj_geom::{Coord, Rect};
use mwsj_query::{JoinPlan, PlanStep, Query};

use crate::index::GroupIndex;
use crate::LocalRect;

/// Multiply-rotate hasher for the fixed-width rectangle keys of the probe
/// memo. The keys are 32 bytes of trusted coordinate bits — SipHash's
/// hash-flooding resistance buys nothing here and costs measurable time
/// in the probe loop.
#[derive(Default)]
struct RectKeyHasher(u64);

impl Hasher for RectKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_ne_bytes(buf));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type RectKeyMap = HashMap<[u64; 4], (u32, u32), BuildHasherDefault<RectKeyHasher>>;

fn rect_key(r: &Rect) -> [u64; 4] {
    r.bounds().map(f64::to_bits)
}

/// One depth of the iterative search: its candidates occupy
/// `arena[base..]` (up to the next frame's base) and `cursor` counts how
/// many have been consumed.
#[derive(Clone, Copy, Default)]
struct Frame {
    base: usize,
    cursor: usize,
}

/// Reusable per-thread working memory.
#[derive(Default)]
struct Scratch {
    /// Flat candidate arena shared by all depths. Probes copy the full
    /// `(rect, id)` in, so consuming a candidate is one sequential arena
    /// read — no random access back into the relation vectors.
    arena: Vec<LocalRect>,
    frames: Vec<Frame>,
    tuple: Vec<LocalRect>,
    /// Per-depth probe memo: probe-rect bits -> range in `memo_arena`. A
    /// probe's result depends only on the probe rectangle (the target
    /// index and distance are fixed per depth), so when the probing
    /// relation is not the start relation — i.e. the same rectangle is
    /// probed once per partial tuple it appears in — the index walk runs
    /// once and repeats are a range copy.
    memo: Vec<RectKeyMap>,
    memo_arena: Vec<LocalRect>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// A query compiled for repeated reducer-group execution: one
/// [`JoinPlan`] per possible start vertex (the matcher seeds from the
/// smallest local relation, which varies per group). Build once per job,
/// share across reduce tasks (`Sync` — the mutable state lives in
/// thread-local scratch).
pub struct JoinKernel {
    plans: Vec<JoinPlan>,
    n: usize,
}

impl JoinKernel {
    /// Compiles the kernel for a query.
    #[must_use]
    pub fn new(query: &Query) -> Self {
        Self {
            plans: JoinPlan::compile_all(query),
            n: query.num_relations(),
        }
    }

    /// Number of relation positions the kernel joins.
    #[must_use]
    pub fn num_relations(&self) -> usize {
        self.n
    }

    /// Finds every consistent full tuple over the local relations and
    /// calls `emit` with one `(rect, id)` per relation position, in
    /// position order: indexes the group, then [`JoinKernel::execute_on`].
    pub fn execute(&self, relations: &[Vec<LocalRect>], emit: impl FnMut(&[LocalRect])) {
        self.execute_on(&GroupIndex::new(relations), emit);
    }

    /// [`JoinKernel::execute`] over a group the caller indexed — and may
    /// have probed already, as C-Rep's round-1 reducer does to mark.
    pub fn execute_on(&self, group: &GroupIndex<'_>, emit: impl FnMut(&[LocalRect])) {
        let relations = group.relations();
        assert_eq!(
            relations.len(),
            self.n,
            "one rectangle set per relation position"
        );
        if relations.iter().any(Vec::is_empty) {
            return;
        }
        // Seed from the smallest relation (the first of several): it is
        // the one relation the search never probes, so never indexes.
        let start = (0..self.n)
            .min_by_key(|&i| relations[i].len())
            .expect("non-empty query");
        let mut stack = Vec::new();
        self.execute_seeded(
            start,
            &relations[start],
            |w, rect, d, out| group.probe(w, rect, d, &mut stack, |_, &entry| out.push(entry)),
            emit,
        );
    }

    /// Runs the search from caller-supplied depth-0 candidates, probing
    /// through a caller-supplied index: a [`GroupIndex`] for a reducer
    /// group, a forest of serialized R-trees for map-side joins over
    /// *stored* per-cell trees.
    ///
    /// `start` picks the compiled plan (seeds are candidates of relation
    /// position `start`); `probe(w, rect, d, out)` must append every
    /// `(rect, id)` of relation position `w` within distance `d` (closed)
    /// of `rect` — [`Rect::bounds_within`], the R-tree acceptance test —
    /// to `out`, appending only. Probe results are memoized per depth by
    /// the probe rectangle's bit pattern, so the probe must be a pure
    /// function of `(w, rect, d)` for one call. `emit` receives each full
    /// tuple in relation-position order. A reentrant call from `emit`
    /// runs on a fresh scratch.
    ///
    /// # Panics
    /// Panics when `start` is not a relation position of the query.
    pub fn execute_seeded(
        &self,
        start: usize,
        seeds: &[LocalRect],
        mut probe: impl FnMut(usize, &Rect, Coord, &mut Vec<LocalRect>),
        mut emit: impl FnMut(&[LocalRect]),
    ) {
        assert!(start < self.n, "start relation position out of range");
        if seeds.is_empty() {
            return;
        }
        let mut scratch = SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
        scratch.arena.clear();
        scratch.arena.extend_from_slice(seeds);
        search(
            self.plans[start].steps(),
            self.n,
            &mut scratch,
            &mut probe,
            &mut emit,
        );
        SCRATCH.with(|s| *s.borrow_mut() = scratch);
    }
}

/// The iterative backtracking loop: candidate generation is behind
/// `probe`; verify edges, frame bookkeeping and the per-depth probe memo
/// are here. `scratch.arena` must arrive holding exactly the depth-0
/// seeds; the remaining scratch parts are (re)initialized here.
fn search(
    steps: &[PlanStep],
    n: usize,
    scratch: &mut Scratch,
    probe: &mut impl FnMut(usize, &Rect, Coord, &mut Vec<LocalRect>),
    emit: &mut impl FnMut(&[LocalRect]),
) {
    let Scratch {
        arena,
        frames,
        tuple,
        memo,
        memo_arena,
    } = scratch;
    tuple.clear();
    tuple.resize(n, (Rect::new(0.0, 0.0, 0.0, 0.0), 0));
    frames.clear();
    frames.resize(n, Frame::default());
    memo.resize_with(n, RectKeyMap::default);
    for m in memo.iter_mut() {
        m.clear();
    }
    memo_arena.clear();

    let mut depth = 0usize;
    loop {
        let step = &steps[depth];
        let v = step.relation.index();
        let Frame { base, mut cursor } = frames[depth];
        let len = arena.len() - base;

        // Advance to the next candidate at this depth that satisfies
        // its verify edges.
        let mut extended = false;
        while cursor < len {
            let (rect, id) = arena[base + cursor];
            cursor += 1;
            let ok = step.verify.iter().all(|e| {
                let other = &tuple[e.against.index()].0;
                if e.candidate_is_left {
                    e.predicate.eval(&rect, other)
                } else {
                    e.predicate.eval(other, &rect)
                }
            });
            if ok {
                tuple[v] = (rect, id);
                extended = true;
                break;
            }
        }
        frames[depth].cursor = cursor;

        if !extended {
            // Depth exhausted: release its candidates, backtrack.
            arena.truncate(base);
            if depth == 0 {
                break;
            }
            depth -= 1;
            continue;
        }
        if depth + 1 == n {
            emit(tuple);
            continue;
        }
        // Probe for the next depth's candidates. When the probing
        // relation is the start relation every probe rectangle is
        // distinct, so the index is walked directly; otherwise the
        // same rectangle recurs once per partial tuple containing it
        // and the result is memoized by rectangle.
        let next = &steps[depth + 1];
        let w = next.relation.index();
        let probe_edge = next.probe.as_ref().expect("non-root steps have a probe");
        let probe_rect = &tuple[probe_edge.from.index()].0;
        let d = probe_edge.predicate.distance();
        let next_base = arena.len();
        if probe_edge.from == steps[0].relation {
            probe(w, probe_rect, d, arena);
        } else {
            let (s, e) = *memo[depth + 1]
                .entry(rect_key(probe_rect))
                .or_insert_with(|| {
                    let m0 = memo_arena.len();
                    probe(w, probe_rect, d, memo_arena);
                    (m0 as u32, memo_arena.len() as u32)
                });
            arena.extend_from_slice(&memo_arena[s as usize..e as usize]);
        }
        depth += 1;
        frames[depth] = Frame {
            base: next_base,
            cursor: 0,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::LINEAR_SCAN_THRESHOLD;
    use crate::multiway::{brute_force_join, multiway_join_naive, normalized};
    use mwsj_query::Query;
    use mwsj_rtree::RTree;
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

    fn kernel_ids(query: &Query, relations: &[Vec<LocalRect>]) -> Vec<Vec<u32>> {
        let kernel = JoinKernel::new(query);
        let mut out = Vec::new();
        kernel.execute(relations, |tuple| {
            out.push(tuple.iter().map(|&(_, id)| id).collect());
        });
        out
    }

    fn naive_ids(query: &Query, relations: &[Vec<LocalRect>]) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        multiway_join_naive(query, relations, |tuple| {
            out.push(tuple.iter().map(|&(_, id)| id).collect());
        });
        out
    }

    fn check_against_oracles(query: &Query, relations: &[Vec<LocalRect>]) {
        let got = normalized(kernel_ids(query, relations));
        assert_eq!(got, normalized(brute_force_join(query, relations)));
        assert_eq!(got, normalized(naive_ids(query, relations)));
    }

    #[test]
    fn kernel_is_reusable_across_groups() {
        let q = Query::builder()
            .overlap("A", "B")
            .overlap("B", "C")
            .build()
            .unwrap();
        let kernel = JoinKernel::new(&q);
        for seed in 0..4u64 {
            let rels = vec![
                random_relation(25, 100 + seed, 35.0),
                random_relation(30, 200 + seed, 35.0),
                random_relation(20, 300 + seed, 35.0),
            ];
            let mut out = Vec::new();
            kernel.execute(&rels, |tuple| {
                out.push(tuple.iter().map(|&(_, id)| id).collect::<Vec<_>>());
            });
            assert_eq!(normalized(out), normalized(brute_force_join(&q, &rels)));
        }
    }

    #[test]
    fn kernel_crosses_the_linear_scan_threshold() {
        // One relation well above the threshold (tree-probed), one well
        // below (SoA-scanned), one at the boundary.
        let q = Query::builder()
            .overlap("A", "B")
            .range("B", "C", 10.0)
            .build()
            .unwrap();
        for sizes in [
            [LINEAR_SCAN_THRESHOLD * 3, 10, LINEAR_SCAN_THRESHOLD],
            [10, LINEAR_SCAN_THRESHOLD * 2, LINEAR_SCAN_THRESHOLD - 1],
        ] {
            let rels: Vec<Vec<LocalRect>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| random_relation(s, 40 + i as u64, 25.0))
                .collect();
            check_against_oracles(&q, &rels);
        }
    }

    #[test]
    fn kernel_handles_contains_in_both_orientations() {
        let q = Query::builder()
            .contains("A", "B")
            .overlap("B", "C")
            .build()
            .unwrap();
        // Containers are large, contents small: non-trivial matches.
        let mut rng = StdRng::seed_from_u64(77);
        let big: Vec<LocalRect> = (0..25)
            .map(|i| {
                (
                    Rect::new(
                        rng.random_range(0.0..200.0),
                        rng.random_range(80.0..300.0),
                        rng.random_range(40.0..80.0),
                        rng.random_range(40.0..80.0),
                    ),
                    i as u32,
                )
            })
            .collect();
        let small = random_relation(60, 78, 12.0);
        let mid = random_relation(8, 79, 30.0);
        // 8 < 25 < 60: the matcher starts at C, so A (the container) is
        // bound last; flipping sizes starts elsewhere.
        check_against_oracles(&q, &[big.clone(), small.clone(), mid]);
        check_against_oracles(&q, &[big, small, random_relation(100, 80, 30.0)]);
    }

    #[test]
    fn execute_seeded_matches_execute_from_every_start() {
        // Seeding with a full relation and probing through bulk-loaded
        // trees must reproduce `execute` exactly (normalized: `execute`
        // picks its own start vertex, which changes emission order).
        let q = Query::builder()
            .overlap("A", "B")
            .range("B", "C", 12.0)
            .build()
            .unwrap();
        let rels = vec![
            random_relation(60, 500, 30.0),
            random_relation(45, 501, 30.0),
            random_relation(55, 502, 30.0),
        ];
        let kernel = JoinKernel::new(&q);
        let want = normalized(kernel_ids(&q, &rels));
        assert!(!want.is_empty(), "test should exercise non-empty output");
        let trees: Vec<RTree> = rels.iter().map(|r| RTree::bulk_load(r.clone())).collect();
        for (start, seeds) in rels.iter().enumerate() {
            let mut out: Vec<Vec<u32>> = Vec::new();
            let mut stack = Vec::new();
            kernel.execute_seeded(
                start,
                seeds,
                |w, probe, d, out| {
                    trees[w].query_within_scratch(probe, d, &mut stack, |r, id| out.push((r, id)));
                },
                |tuple| out.push(tuple.iter().map(|&(_, id)| id).collect()),
            );
            assert_eq!(normalized(out), want, "start = {start}");
        }
    }

    #[test]
    fn join_on_an_index_marking_probed_first_equals_a_fresh_join() {
        // C-Rep's round-1 reducer: mark, then join through the same index.
        let grid = mwsj_partition::Grid::square((0.0, 300.0), (0.0, 300.0), 2);
        let q = Query::builder()
            .overlap("A", "B")
            .range("B", "C", 10.0)
            .build()
            .unwrap();
        let rels = vec![
            random_relation(LINEAR_SCAN_THRESHOLD * 2, 600, 30.0),
            random_relation(LINEAR_SCAN_THRESHOLD / 2, 601, 30.0),
            random_relation(LINEAR_SCAN_THRESHOLD * 3, 602, 30.0),
        ];
        let group = GroupIndex::new(&rels);
        let cell = mwsj_partition::CellId(0);
        let flags = crate::marking::mark_indexed(&q, &grid, cell, &group);
        assert_eq!(
            flags,
            crate::marking::mark_for_replication(&q, &grid, cell, &rels)
        );
        let mut out: Vec<Vec<u32>> = Vec::new();
        JoinKernel::new(&q).execute_on(&group, |tuple| {
            out.push(tuple.iter().map(|&(_, id)| id).collect());
        });
        assert!(!out.is_empty(), "test should exercise non-empty output");
        assert_eq!(normalized(out), normalized(kernel_ids(&q, &rels)));
    }

    #[test]
    fn execute_seeded_empty_seeds_is_a_no_op() {
        let q = Query::builder().overlap("A", "B").build().unwrap();
        let kernel = JoinKernel::new(&q);
        let mut called = false;
        kernel.execute_seeded(0, &[], |_, _, _, _| {}, |_| called = true);
        assert!(!called);
    }

    #[test]
    fn reentrant_emit_does_not_corrupt_scratch() {
        let q = Query::builder().overlap("A", "B").build().unwrap();
        let rels = vec![random_relation(20, 90, 40.0), random_relation(20, 91, 40.0)];
        let inner_q = q.clone();
        let inner_rels = rels.clone();
        let kernel = JoinKernel::new(&q);
        let mut outer = 0usize;
        let mut inner_total = 0usize;
        kernel.execute(&rels, |_| {
            outer += 1;
            // A nested execution on the same thread must see its own
            // scratch, not the suspended outer one.
            let inner_kernel = JoinKernel::new(&inner_q);
            let mut inner = 0usize;
            inner_kernel.execute(&inner_rels, |_| inner += 1);
            inner_total = inner;
        });
        let expect = brute_force_join(&q, &rels).len();
        assert!(expect > 0, "test should exercise non-empty output");
        assert_eq!(outer, expect);
        assert_eq!(inner_total, expect);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_kernel_equals_oracle_across_shapes(
            a in proptest::collection::vec((0.0..100.0f64, 20.0..100.0f64, 0.0..25.0f64, 0.0..20.0f64), 1..14),
            b in proptest::collection::vec((0.0..100.0f64, 20.0..100.0f64, 0.0..25.0f64, 0.0..20.0f64), 1..14),
            c in proptest::collection::vec((0.0..100.0f64, 20.0..100.0f64, 0.0..25.0f64, 0.0..20.0f64), 1..14),
            d in 0.0..30.0f64,
            shape in 0..4usize,
        ) {
            let to_rel = |v: Vec<(f64, f64, f64, f64)>| -> Vec<LocalRect> {
                v.into_iter().enumerate()
                    .map(|(i, (x, y, l, b))| (Rect::new(x, y, l, b), i as u32))
                    .collect()
            };
            let rels = vec![to_rel(a), to_rel(b), to_rel(c)];
            let q = match shape {
                // Chain.
                0 => Query::builder().overlap("A", "B").range("B", "C", d),
                // Star centered on A.
                1 => Query::builder().overlap("A", "B").overlap("A", "C"),
                // Cycle.
                2 => Query::builder()
                    .overlap("A", "B")
                    .range("B", "C", d)
                    .overlap("C", "A"),
                // Parallel edges A=B plus a chain link to C.
                _ => Query::builder()
                    .overlap("A", "B")
                    .range("A", "B", d)
                    .overlap("B", "C"),
            }
            .build()
            .unwrap();
            let got = normalized(kernel_ids(&q, &rels));
            prop_assert_eq!(&got, &normalized(brute_force_join(&q, &rels)));
            prop_assert_eq!(got, normalized(naive_ids(&q, &rels)));
        }
    }
}
