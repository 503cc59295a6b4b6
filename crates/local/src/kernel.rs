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
//! * **Counting on the join tree.** When no plan step verifies an edge —
//!   an acyclic join graph of symmetric predicates, every chain and star
//!   of the paper's tables — [`JoinKernel::count_on`] counts the tuples a
//!   [`TupleFilter`] keeps without enumerating one: a bottom-up pass over
//!   the same pair lists (below), per inclusion–exclusion term.
//!
//! `multiway_join_naive` in [`crate::multiway`] is the independent
//! recursive matcher the tests compare the kernel's tuple set against.
//!
//! # The count
//!
//! With `N(X)` the number of tuples whose every member lies in a set `X`,
//! one pass over the plan's steps from the last to the first gives it:
//! `cnt(i) = [i ∈ X] · Π_children Σ_{j ∈ row(i)} cnt(j)` and
//! `N(X) = Σ_{i ∈ start} cnt(i)`. The reducer of cell `(C, R)` keeps a
//! tuple when its §6.2 designated point — the largest start `x` and the
//! smallest top `y` over its members — lies in the cell. `col_of_x` and
//! `row_of_y` are monotone, so that point's column is the largest member
//! start column and its row the largest member start row, and the
//! designated count is
//! `N(≤C, ≤R) + N(≤C−1, ≤R−1) − N(≤C−1, ≤R) − N(≤C, ≤R−1)`, where
//! `≤c, ≤r` holds the members starting in column `c` or left of it and in
//! row `r` or above it. Each member's side of those bounds is its
//! [`CellClass`], comparisons against four bounds read once per group and
//! kept in [`GroupIndex::classes`]; no coordinate is divided. The terms are
//! `u64` and added before they are subtracted. Cross-cell tuples (round 2
//! of C-Rep) subtract the same four terms over the members split onto the
//! cell, which count the designated tuples round 1 emitted.

use std::cell::RefCell;
use std::rc::Rc;

use mwsj_geom::Rect;
use mwsj_partition::{CellClass, CellId, Grid};
use mwsj_query::{JoinPlan, PlanStep, Query};

use crate::index::{GroupIndex, PairList};
use crate::LocalRect;

/// Which of the tuples a reducer's local join finds it keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleFilter {
    /// Every tuple. For the hypercube, whose delivery is already
    /// exactly-once: the members of a joining tuple share exactly one
    /// hypercube cell.
    All,
    /// Tuples whose multi-way duplicate-avoidance point (§6.2) lies in the
    /// reducer's cell. For the spatial algorithms, whose routing delivers
    /// a tuple's members to several cells.
    Designated,
    /// [`TupleFilter::Designated`] tuples with at least one member that
    /// is not split onto the reducer's cell. Round 2 of C-Rep: the tuples
    /// whose members are all split onto their designated cell were
    /// emitted there by round 1.
    DesignatedCrossCell,
}

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
    /// The count's per-position terms, per relation.
    terms: Vec<Vec<u64>>,
}

/// A step's pair list and the relation it is probed from, by the relation
/// the step binds.
type StepLists = Vec<Option<(Rc<PairList>, usize)>>;

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
    /// The plan [`JoinKernel::count_on`] counts on, when no plan verifies
    /// an edge (every predicate is its probe's, so a tuple is one member
    /// per relation joined along the plan's tree).
    count_root: Option<usize>,
}

impl JoinKernel {
    /// Compiles the kernel for a query.
    #[must_use]
    pub fn new(query: &Query) -> Self {
        let plans = JoinPlan::compile_all(query);
        let tree = (plans.iter().flat_map(JoinPlan::steps)).all(|step| step.verify.is_empty());
        // Every root counts the same tuples; rooted where the fewest other
        // relations have children (a chain's middle, a star's centre), the
        // count keeps the fewest terms — none for a 3-chain or a star.
        let inner = |plan: &JoinPlan| {
            let froms = plan
                .steps()
                .iter()
                .filter_map(|s| s.probe.map(|p| p.from.index()));
            let mask = froms.fold(0u64, |m, from| m | 1 << from);
            (mask & !(1 << plan.steps()[0].relation.index())).count_ones()
        };
        let count_root = if tree {
            (0..plans.len()).min_by_key(|&r| inner(&plans[r]))
        } else {
            None
        };
        Self {
            plans,
            n: query.num_relations(),
            count_root,
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
        let Some(steps) = self.plan_for(group) else {
            return;
        };
        let relations = group.relations();
        let mut scratch = SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
        let Scratch {
            search: state,
            alive,
            ..
        } = &mut scratch;
        let lists = step_lists(group, steps, alive);
        state.arena.clear();
        state
            .arena
            .extend(0..relations[steps[0].relation.index()].len() as u32);
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

    /// The number of tuples [`JoinKernel::execute_on`] would find over the
    /// group that `filter` keeps at `cell` of `grid` (unused for
    /// [`TupleFilter::All`]), counted on the join tree without enumerating
    /// one (module docs). `None` when a plan verifies an edge — a cycle,
    /// `Contains` or parallel predicates — which only enumeration answers.
    #[must_use]
    pub fn count_on(
        &self,
        group: &GroupIndex<'_>,
        filter: TupleFilter,
        grid: &Grid,
        cell: CellId,
    ) -> Option<u64> {
        let root = self.count_root?;
        if self.plan_for(group).is_none() {
            return Some(0);
        }
        let steps = self.plans[root].steps();
        let mut scratch = SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
        let Scratch { alive, terms, .. } = &mut scratch;
        let lists = step_lists(group, steps, alive);
        let count = match filter {
            TupleFilter::All => count_terms::<1>(steps, &lists, alive, terms, |_, _| 1)[0],
            TupleFilter::Designated => {
                let classes = group.classes(grid, cell);
                let term = |w: usize, i: usize| designated_terms(classes[w][i]);
                let [n0, n1, n2, n3] = count_terms(steps, &lists, alive, terms, term);
                (n0 + n1) - (n2 + n3)
            }
            TupleFilter::DesignatedCrossCell => {
                let classes = group.classes(grid, cell);
                let term = |w: usize, i: usize| {
                    let class = classes[w][i];
                    let designated = designated_terms(class);
                    let split = if class.splits_onto() { designated } else { 0 };
                    designated | split << 4
                };
                let [n0, n1, n2, n3, s0, s1, s2, s3] =
                    count_terms(steps, &lists, alive, terms, term);
                ((n0 + n1) - (n2 + n3)) - ((s0 + s1) - (s2 + s3))
            }
        };
        SCRATCH.with(|s| *s.borrow_mut() = scratch);
        Some(count)
    }

    /// The plan seeded from the group's smallest relation (the first of
    /// several), or `None` when a relation is empty and nothing joins.
    fn plan_for(&self, group: &GroupIndex<'_>) -> Option<&[PlanStep]> {
        let relations = group.relations();
        assert_eq!(
            relations.len(),
            self.n,
            "one rectangle set per relation position"
        );
        if relations.iter().any(Vec::is_empty) {
            return None;
        }
        let start = (0..self.n)
            .min_by_key(|&i| relations[i].len())
            .expect("non-empty query");
        Some(self.plans[start].steps())
    }
}

/// Each step's pair list, by the relation it binds. A list the group does
/// not hold yet is swept for the `from` rectangles some partial tuple can
/// bind — those with a partner along the plan so far. On return
/// `alive[w]` flags the rectangles of relation `w` a partial tuple
/// reaches (all of the start relation).
fn step_lists(group: &GroupIndex<'_>, steps: &[PlanStep], alive: &mut Vec<Vec<bool>>) -> StepLists {
    let relations = group.relations();
    let start = steps[0].relation.index();
    alive.resize_with(relations.len().max(alive.len()), Vec::new);
    alive[start].clear();
    alive[start].resize(relations[start].len(), true);
    let mut lists: StepLists = (0..relations.len()).map(|_| None).collect();
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
    lists
}

/// The inclusion–exclusion terms a member of a tuple designated to the
/// classifying cell `(C, R)` belongs to, one bit each: `(≤C, ≤R)`,
/// `(≤C−1, ≤R−1)`, `(≤C−1, ≤R)` and `(≤C, ≤R−1)`.
fn designated_terms(class: CellClass) -> u8 {
    let (col, left) = (!class.starts_right(), class.starts_left());
    let (row, above) = (!class.starts_below(), class.starts_above());
    u8::from(col && row)
        | u8::from(left && above) << 1
        | u8::from(left && row) << 2
        | u8::from(col && above) << 3
}

/// `N(X_k)` for the `K` member sets `X_k`, where bit `k` of `term(w, i)`
/// puts position `i` of relation `w` in `X_k`: one pass over the steps
/// from the last to the first (every child binds after its parent). A
/// relation's value at a reached position is its term bits times, per
/// child relation, the sum of the child's values over the position's row;
/// a leaf's value is its term bits, read where its parent sums them, and
/// the start's values are summed as they are found. So only the inner
/// relations of the plan's tree keep their values, `K` words a position,
/// in `acc`. `alive` and `lists` are [`step_lists`]'.
fn count_terms<const K: usize>(
    steps: &[PlanStep],
    lists: &StepLists,
    alive: &[Vec<bool>],
    acc: &mut Vec<Vec<u64>>,
    term: impl Fn(usize, usize) -> u8,
) -> [u64; K] {
    let bits = |w: usize, i: usize| {
        let mask = term(w, i);
        std::array::from_fn::<u64, K, _>(|k| u64::from(mask >> k & 1))
    };
    let parent = |w: usize| lists[w].as_ref().map(|(_, from)| *from);
    // The relations some step is probed from: the tree's inner vertices
    // (a query has at most 32 relations, as marking's subset masks assume).
    let inner = (0..lists.len())
        .filter_map(parent)
        .fold(0u64, |m, w| m | 1 << w);
    let is_leaf = |w: usize| inner & 1 << w == 0;
    acc.resize_with(lists.len().max(acc.len()), Vec::new);
    let mut total = [0u64; K];
    for (depth, step) in steps.iter().enumerate().rev() {
        let v = step.relation.index();
        if depth > 0 && is_leaf(v) {
            continue;
        }
        let children = || {
            let later = steps[depth + 1..].iter().map(|s| s.relation.index());
            later.filter(move |&c| parent(c) == Some(v))
        };
        let mut values = std::mem::take(&mut acc[v]);
        values.clear();
        if depth > 0 {
            values.resize(alive[v].len() * K, 0);
        }
        for (i, _) in alive[v].iter().enumerate().filter(|(_, &on)| on) {
            let mut value = bits(v, i);
            for c in children() {
                if value.iter().all(|&lane| lane == 0) {
                    break;
                }
                let (list, _) = lists[c].as_ref().expect("a child has a list");
                let (row, leaf) = (list.from(v, c).row(i), is_leaf(c));
                let mut sums = [0u64; K];
                for &j in row {
                    let j = j as usize;
                    let child = if leaf {
                        bits(c, j)
                    } else {
                        acc[c][j * K..][..K].try_into().expect("K lanes")
                    };
                    for (sum, lane) in sums.iter_mut().zip(child) {
                        *sum += lane;
                    }
                }
                for (lane, sum) in value.iter_mut().zip(sums) {
                    *lane *= sum;
                }
            }
            if depth == 0 {
                for (sum, lane) in total.iter_mut().zip(value) {
                    *sum += lane;
                }
            } else {
                values[i * K..][..K].copy_from_slice(&value);
            }
        }
        acc[v] = values;
    }
    total
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
    use mwsj_partition::{CellId, Grid};
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

    /// The kernel's tuples that `filter` keeps at `cell`, enumerated and
    /// tested as a reducer that enumerates tests them: by the division.
    fn enumerated_count(
        kernel: &JoinKernel,
        group: &GroupIndex<'_>,
        filter: TupleFilter,
        grid: &Grid,
        cell: CellId,
    ) -> u64 {
        let mut kept = 0;
        kernel.execute_on(group, |tuple| {
            let designated =
                || crate::dedup::multiway_tuple_cell_of(grid, tuple.iter().map(|(r, _)| r)) == cell;
            kept += u64::from(match filter {
                TupleFilter::All => true,
                TupleFilter::Designated => designated(),
                TupleFilter::DesignatedCrossCell => {
                    designated() && tuple.iter().any(|(r, _)| !grid.splits_onto(r, cell))
                }
            });
        });
        kept
    }

    const FILTERS: [TupleFilter; 3] = [
        TupleFilter::All,
        TupleFilter::Designated,
        TupleFilter::DesignatedCrossCell,
    ];

    /// Uneven, non-dyadic and off-origin grids.
    fn count_grids() -> [Grid; 4] {
        [
            Grid::square((0.0, 1000.0), (0.0, 1000.0), 3),
            Grid::new((100.1, 1100.1), (-50.3, 949.7), 7, 5),
            Grid::new((0.0, 300.0), (0.0, 100.0), 2, 5),
            Grid::square((0.0, 8.0), (0.0, 8.0), 4),
        ]
    }

    /// A rectangle of `grid`'s space whose edges sit on its half-cell
    /// lattice (computed by multiplication, so a float off the division's
    /// boundary on non-dyadic grids), a float either side of it, or
    /// anywhere, `(x, y, width, height, nudge)` in lattice steps.
    fn lattice_rect(grid: &Grid, (x, y, w, h, nudge): (u32, u32, u32, u32, u32)) -> Rect {
        let ((x0, xn), (y0, yn)) = (grid.x_range(), grid.y_range());
        let half_x = (xn - x0) / f64::from(grid.cols()) / 2.0;
        let half_y = (yn - y0) / f64::from(grid.rows()) / 2.0;
        let nudged = |v: f64| match nudge {
            0 => v.next_up(),
            1 => v.next_down(),
            2 => v + 0.37 * half_x.min(half_y),
            _ => v,
        };
        let left = nudged(x0 + f64::from(x % (2 * grid.cols() + 1)) * half_x).clamp(x0, xn);
        let bottom = nudged(y0 + f64::from(y % (2 * grid.rows() + 1)) * half_y).clamp(y0, yn);
        let right = (left + f64::from(w) * half_x).min(xn);
        let top = (bottom + f64::from(h) * half_y).min(yn);
        Rect::from_bounds(left, bottom, right, top).expect("ordered, in-space bounds")
    }

    #[test]
    fn a_plan_that_verifies_an_edge_is_refused() {
        let grid = Grid::square((0.0, 300.0), (0.0, 300.0), 2);
        let rels = vec![
            random_relation(20, 1, 40.0),
            random_relation(20, 2, 40.0),
            random_relation(20, 3, 40.0),
        ];
        let group = GroupIndex::new(&rels);
        for text in [
            "A ov B and B ov C and C ov A",
            "A contains B and B ov C",
            "A ov B and A ra(3) B and B ov C",
        ] {
            let kernel = JoinKernel::new(&Query::parse(text).unwrap());
            for filter in FILTERS {
                assert_eq!(
                    kernel.count_on(&group, filter, &grid, CellId(0)),
                    None,
                    "{text}"
                );
            }
        }
        for text in ["A ov B and B ov C", "A ra(3) B and A ov C"] {
            let kernel = JoinKernel::new(&Query::parse(text).unwrap());
            assert!(kernel
                .count_on(&group, TupleFilter::All, &grid, CellId(0))
                .is_some());
        }
    }

    #[test]
    fn designated_counts_over_every_cell_sum_to_the_join() {
        // Groups large enough to sweep in several strips, one cell at a
        // time: every tuple is designated to one cell, and counted there.
        let q = Query::parse("A ov B and B ra(4) C").unwrap();
        let kernel = JoinKernel::new(&q);
        let rels = vec![
            random_relation(400, 31, 20.0),
            random_relation(500, 32, 20.0),
            random_relation(450, 33, 20.0),
        ];
        let group = GroupIndex::new(&rels);
        let total = kernel.count_on(
            &group,
            TupleFilter::All,
            &Grid::square((0.0, 1.0), (0.0, 1.0), 1),
            CellId(0),
        );
        let mut all = 0;
        kernel.execute_on(&group, |_| all += 1);
        assert!(all > 2_000, "test should exercise a real output");
        assert_eq!(total, Some(all));
        let grid = Grid::new((0.0, 300.0), (0.0, 300.0), 7, 3);
        let mut sum = 0;
        for cell in grid.cells() {
            // A fresh index per cell: a group is classified against one.
            let group = GroupIndex::new(&rels);
            let counted = kernel.count_on(&group, TupleFilter::Designated, &grid, cell);
            let want = enumerated_count(&kernel, &group, TupleFilter::Designated, &grid, cell);
            assert_eq!(counted, Some(want), "{cell:?}");
            sum += want;
        }
        assert_eq!(sum, all);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]
        /// Counting on the join tree keeps exactly the tuples the filtered
        /// enumeration keeps: chains shaped like Q2, Q3 and Q4, a star, a
        /// 4-chain (whose count keeps an inner relation's terms), every
        /// filter, any cell of uneven and non-dyadic grids, members on cell
        /// boundaries and a float off them, empty relations.
        #[test]
        fn prop_count_on_the_tree_equals_the_filtered_enumeration(
            which in 0usize..4,
            cell in 0u32..35,
            shape in 0usize..5,
            rels in proptest::collection::vec(
                proptest::collection::vec((0u32..64, 0u32..64, 0u32..5, 0u32..5, 0u32..5), 0..12),
                4..5,
            ),
        ) {
            let grid = &count_grids()[which];
            let cell = CellId(cell % grid.num_cells());
            let d = (grid.x_range().1 - grid.x_range().0) / f64::from(grid.cols()) / 2.0;
            let text = match shape {
                0 => "A ov B and B ov C".to_string(),
                1 => format!("A ra({d}) B and B ra({d}) C"),
                2 => format!("A ov B and B ra({d}) C"),
                3 => format!("A ov B and A ov C and A ra({d}) D"),
                _ => format!("A ov B and B ra({d}) C and C ov D"),
            };
            let q = Query::parse(&text).unwrap();
            let rels: Vec<Vec<LocalRect>> = rels
                .into_iter()
                .take(q.num_relations())
                .map(|rel| rel.into_iter().zip(0..).map(|(r, id)| (lattice_rect(grid, r), id)).collect())
                .collect();
            let kernel = JoinKernel::new(&q);
            for filter in FILTERS {
                let group = GroupIndex::new(&rels);
                let want = enumerated_count(&kernel, &group, filter, grid, cell);
                prop_assert_eq!(kernel.count_on(&group, filter, grid, cell), Some(want), "{:?}", filter);
            }
        }
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
