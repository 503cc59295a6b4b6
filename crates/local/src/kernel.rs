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
//!   probe itself and dropped from the verify lists.
//! * **Iterative stack, flat arena.** Recursion is replaced by an explicit
//!   depth cursor over one flat candidate buffer; each depth owns a range
//!   `[base, len)` of the buffer that is truncated on backtrack. No
//!   per-probe `Vec` — a probe appends to the arena and the frame records
//!   where its candidates start.
//! * **Candidates are adjacency rows.** There is one backtracking loop,
//!   `search`, and one way into it: [`JoinKernel::execute_on`] resolves
//!   each step's pair list from the group's [`GroupIndex`] up front — in
//!   plan order, each list swept only for the rectangles the previous
//!   steps can reach — and its probe copies an adjacency row (the
//!   candidates' *positions* in their relation) into the arena; a
//!   candidate's `(rect, id)` is read when it is consumed, and the last
//!   depth emits each consumed candidate without leaving its loop. A group
//!   is whatever the caller wrapped: a reducer's key group, or the group
//!   the map-side join gathers per seed cell from its stored per-cell
//!   runs.
//! * **Thread-local scratch.** Arena, frames and reach bitmaps live in one
//!   scratch struct per worker thread, reused across groups: after the
//!   first group on a thread, the search itself allocates nothing (the
//!   group's pair lists and whatever `emit` does still allocate).
//!
//! `multiway_join_naive` in [`crate::multiway`] is the independent
//! recursive matcher the tests compare the kernel's tuple set against.

use std::cell::RefCell;

use mwsj_geom::Rect;
use mwsj_query::{JoinPlan, PlanStep, Query};

use crate::index::GroupIndex;
use crate::LocalRect;

/// One depth of the iterative search: its candidates occupy
/// `arena[base..]` (up to the next frame's base) and `cursor` counts how
/// many have been consumed.
#[derive(Clone, Copy, Default)]
struct Frame {
    base: usize,
    cursor: usize,
}

/// What the backtracking loop itself works on.
#[derive(Default)]
struct Search {
    /// Flat candidate arena shared by all depths, of positions in the
    /// relation the depth binds: a probe is one copy of an adjacency row,
    /// and a candidate's `(rect, id)` is read when it is consumed.
    arena: Vec<u32>,
    frames: Vec<Frame>,
    /// The tuple under construction — what `emit` receives — and the
    /// positions of its members, which the next depth's probe reads.
    tuple: Vec<LocalRect>,
    bound: Vec<u32>,
}

/// Reusable per-thread working memory.
#[derive(Default)]
struct Scratch {
    search: Search,
    /// The reach bitmaps, per relation.
    alive: Vec<Vec<bool>>,
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
    /// position order: wraps the group, then [`JoinKernel::execute_on`].
    pub fn execute(&self, relations: &[Vec<LocalRect>], emit: impl FnMut(&[LocalRect])) {
        self.execute_on(&GroupIndex::new(relations), emit);
    }

    /// [`JoinKernel::execute`] over a group the caller wrapped — and whose
    /// pair lists it may have built already, as C-Rep's round-1 reducer
    /// does to mark.
    pub fn execute_on(&self, group: &GroupIndex<'_>, mut emit: impl FnMut(&[LocalRect])) {
        let relations = group.relations();
        assert_eq!(
            relations.len(),
            self.n,
            "one rectangle set per relation position"
        );
        if relations.iter().any(Vec::is_empty) {
            return;
        }
        // Seed from the smallest relation (the first of several).
        let start = (0..self.n)
            .min_by_key(|&i| relations[i].len())
            .expect("non-empty query");
        let steps = self.plans[start].steps();
        let mut scratch = SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
        let Scratch {
            search: state,
            alive,
        } = &mut scratch;
        // Each step's pair list, by the relation it binds. A list the group
        // does not hold yet is swept for the `from` rectangles some partial
        // tuple can bind — those with a partner along the plan so far.
        alive.resize_with(self.n, Vec::new);
        alive[start].clear();
        alive[start].resize(relations[start].len(), true);
        let mut lists: Vec<_> = (0..self.n).map(|_| None).collect();
        for step in &steps[1..] {
            let edge = step.probe.as_ref().expect("non-root steps have a probe");
            let (from, w) = (edge.from.index(), step.relation.index());
            let list = group.pairs(from, w, edge.predicate.distance(), Some(&alive[from]));
            let mut reached = std::mem::take(&mut alive[w]);
            reached.clear();
            reached.resize(relations[w].len(), false);
            for (i, _) in alive[from].iter().enumerate().filter(|(_, &on)| on) {
                for &j in list.from(from, w).row(i) {
                    reached[j as usize] = true;
                }
            }
            alive[w] = reached;
            lists[w] = Some((list, from));
        }
        state.arena.clear();
        state.arena.extend(0..relations[start].len() as u32);
        search(
            steps,
            relations,
            state,
            &mut |w, i, out| {
                let (list, from) = lists[w].as_ref().expect("every later step has a list");
                out.extend_from_slice(list.from(*from, w).row(i as usize));
            },
            &mut emit,
        );
        SCRATCH.with(|s| *s.borrow_mut() = scratch);
    }
}

/// The iterative backtracking loop: candidate generation is behind
/// `probe(w, i, out)`, which appends the positions in relation `w` of the
/// candidates for position `i` of the step's `from` relation; verify
/// edges and frame bookkeeping are here. `state.arena` must arrive holding
/// exactly the depth-0 seeds; frames, tuple and bound positions are
/// (re)initialized here.
fn search(
    steps: &[PlanStep],
    relations: &[Vec<LocalRect>],
    state: &mut Search,
    probe: &mut impl FnMut(usize, u32, &mut Vec<u32>),
    emit: &mut impl FnMut(&[LocalRect]),
) {
    let Search {
        arena,
        frames,
        tuple,
        bound,
    } = state;
    let n = relations.len();
    tuple.clear();
    tuple.resize(n, (Rect::new(0.0, 0.0, 0.0, 0.0), 0));
    bound.clear();
    bound.resize(n, 0);
    frames.clear();
    frames.resize(n, Frame::default());

    let mut depth = 0usize;
    loop {
        let step = &steps[depth];
        let v = step.relation.index();
        let Frame { base, mut cursor } = frames[depth];
        let len = arena.len() - base;

        // Advance to the next candidate at this depth that satisfies
        // its verify edges; at the last depth, emit every one.
        let last = depth + 1 == n;
        let mut extended = false;
        while cursor < len {
            let at = arena[base + cursor];
            let (rect, id) = relations[v][at as usize];
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
                bound[v] = at;
                if last {
                    emit(tuple);
                    continue;
                }
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
        // Probe for the next depth's candidates.
        let next = &steps[depth + 1];
        let probe_edge = next.probe.as_ref().expect("non-root steps have a probe");
        let next_base = arena.len();
        probe(next.relation.index(), bound[probe_edge.from.index()], arena);
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
    use crate::multiway::{brute_force_join, multiway_join_naive, normalized};
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
    fn kernel_crosses_the_strip_rule() {
        // Groups whose pair lists sweep in one strip (a side too small to
        // fill two) and, when marking asked for complete lists first, in
        // several; forward semi-join rows either way.
        let q = Query::builder()
            .overlap("A", "B")
            .range("B", "C", 10.0)
            .build()
            .unwrap();
        for sizes in [[144, 10, 48], [10, 96, 47], [47, 48, 49]] {
            let rels: Vec<Vec<LocalRect>> = (sizes.iter().zip(40..))
                .map(|(&s, seed)| random_relation(s, seed, 25.0))
                .collect();
            check_against_oracles(&q, &rels);
        }
        // Too large for the exponential oracle: the chain by nested loops.
        let rels: Vec<Vec<LocalRect>> = ([600, 700, 800].iter().zip(50..))
            .map(|(&s, seed)| random_relation(s, seed, 12.0))
            .collect();
        let mut want = Vec::new();
        for (a, ia) in &rels[0] {
            for (b, ib) in rels[1].iter().filter(|(b, _)| a.overlaps(b)) {
                let reach = |(c, _): &&LocalRect| b.within_distance(c, 10.0);
                want.extend(
                    rels[2]
                        .iter()
                        .filter(reach)
                        .map(|(_, ic)| vec![*ia, *ib, *ic]),
                );
            }
        }
        assert!(want.len() > 1_000, "test should exercise a real output");
        assert_eq!(normalized(kernel_ids(&q, &rels)), normalized(want.clone()));
        let group = GroupIndex::new(&rels);
        let grid = mwsj_partition::Grid::square((0.0, 300.0), (0.0, 300.0), 2);
        let _ = crate::marking::mark_indexed(&q, &grid, mwsj_partition::CellId(0), &group);
        let (_, complete) = group.sweep_counts();
        assert!(complete > 4_000, "marking should have swept both edges");
        let mut out: Vec<Vec<u32>> = Vec::new();
        JoinKernel::new(&q).execute_on(&group, |tuple| {
            out.push(tuple.iter().map(|&(_, id)| id).collect());
        });
        assert_eq!(normalized(out), normalized(want));
        assert_eq!(
            group.sweep_counts().1,
            complete,
            "the join swept an edge again"
        );
    }

    #[test]
    fn a_small_seed_relation_never_triggers_a_full_join_of_the_others() {
        // The skew guard, as a count: with four R1 rectangles the R2–R3
        // list is swept only for the R2 rectangles an R1 rectangle reaches.
        let q = Query::builder()
            .overlap("R1", "R2")
            .overlap("R2", "R3")
            .build()
            .unwrap();
        let rels = vec![
            random_relation(4, 700, 12.0),
            random_relation(20_000, 701, 12.0),
            random_relation(20_000, 702, 12.0),
        ];
        let reached: Vec<&LocalRect> = (rels[1].iter())
            .filter(|(b, _)| rels[0].iter().any(|(a, _)| a.overlaps(b)))
            .collect();
        let pairs = |from: &[&LocalRect], to: &[LocalRect]| -> u64 {
            let partners = |(f, _): &&LocalRect| to.iter().filter(|(t, _)| f.overlaps(t)).count();
            from.iter().map(partners).sum::<usize>() as u64
        };
        let seeds: Vec<&LocalRect> = rels[0].iter().collect();
        let bound = pairs(&seeds, &rels[1]) + pairs(&reached, &rels[2]);
        let group = GroupIndex::new(&rels);
        let mut got: Vec<Vec<u32>> = Vec::new();
        JoinKernel::new(&q).execute_on(&group, |tuple| {
            got.push(tuple.iter().map(|&(_, id)| id).collect());
        });
        let (_, materialized) = group.sweep_counts();
        assert!(
            materialized <= bound,
            "{materialized} pairs for a bound of {bound}"
        );
        assert!(bound < 20_000, "a full R2 ⋈ R3 holds some 600 000 pairs");
        assert!(!got.is_empty(), "test should exercise non-empty output");
        assert_eq!(normalized(got), normalized(naive_ids(&q, &rels)));
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
    fn join_on_an_index_marking_probed_first_equals_a_fresh_join() {
        // C-Rep's round-1 reducer: mark, then join through the same index.
        let grid = mwsj_partition::Grid::square((0.0, 300.0), (0.0, 300.0), 2);
        let q = Query::builder()
            .overlap("A", "B")
            .range("B", "C", 10.0)
            .build()
            .unwrap();
        let rels = vec![
            random_relation(96, 600, 30.0),
            random_relation(24, 601, 30.0),
            random_relation(144, 602, 30.0),
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
