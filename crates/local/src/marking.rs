//! The round-1 *Controlled-Replicate* marking procedure (§7.4).
//!
//! Reducer `c` receives every rectangle split onto cell `c` and must decide
//! which of them to replicate. The paper defines the marked set through
//! rectangle-sets `U` (one rectangle per relation of a relation-subset
//! `R_s`) satisfying:
//!
//! * **C1** — `U` is *consistent*: all query predicates between relations
//!   of `R_s` hold among the members (§7.3);
//! * **C2** — every member whose relation has a join condition to a
//!   relation **outside** `R_s` *crosses* cell `c` (overlap predicate:
//!   overlaps another cell; range `d`: some other cell within distance `d`,
//!   §8; hybrid queries take the per-edge condition, §9);
//! * **C3** — at least one such outside pair exists;
//! * **C4** — `U` is maximal.
//!
//! `uS_c` is the union of all such sets; rectangles of `uS_c` that *start*
//! in `c` are replicated.
//!
//! # Algorithm
//!
//! The paper specifies the conditions but no enumeration procedure. Two
//! observations make the computation tractable (proofs in the comments):
//!
//! 1. **C4 does not change the union.** Every set satisfying C1-C3 is
//!    contained in some maximal such set, so the union over C1-C4 sets
//!    equals the union over C1-C3 sets and maximality never needs to be
//!    checked.
//! 2. **Only connected relation-subsets matter.** If `R_s` induces a
//!    disconnected subgraph of the (connected) join graph, restricting `U`
//!    to the component of any member changes neither that member's C2
//!    obligations (components share no internal edges) nor C3 (a proper
//!    subset of a connected graph always has an outside edge). So a
//!    rectangle is in `uS_c` iff it belongs to a consistent,
//!    C2-satisfying set over a **connected proper** subset containing its
//!    relation.
//!
//! For each connected proper subset `S` the procedure filters each member
//! relation's rectangles by their C2 crossing obligations and then runs an
//! **arc-consistency fixpoint** (semi-join reduction) over the predicates
//! internal to `S`: a rectangle survives iff every internal edge offers at
//! least one supporting partner. On tree-shaped subsets (all subsets of
//! the paper's chain queries) arc consistency is exact — every survivor
//! extends to a full consistent set. On cyclic subsets it may keep a
//! rectangle that belongs to no full set; that only **over**-marks, which
//! is always safe (round 2 then holds a superset of the rectangles it
//! needs, and its designated-cell filter decides what is emitted) and
//! never misses a mark.

use std::rc::Rc;

use mwsj_geom::Rect;
use mwsj_partition::{CellId, Grid};
use mwsj_query::{Predicate, Query, RelationId};

use crate::index::{GroupIndex, PairList};
use crate::LocalRect;

/// Computes, for every local rectangle, whether it belongs to `uS_c` — the
/// union of rectangle-sets satisfying conditions C1-C4 at cell `cell`.
///
/// `relations[i]` holds the rectangles of relation position `i` that were
/// split onto this cell. The returned flags are aligned with the input
/// (`flags[i][j]` corresponds to `relations[i][j]`). The round-1 reducer
/// replicates flagged rectangles **that start in `cell`**; membership is
/// reported for all so the caller owns that filter.
#[must_use]
pub fn mark_for_replication(
    query: &Query,
    grid: &Grid,
    cell: CellId,
    relations: &[Vec<LocalRect>],
) -> Vec<Vec<bool>> {
    mark_indexed(query, grid, cell, &GroupIndex::new(relations))
}

/// [`mark_for_replication`] over a group the caller wrapped, so that the
/// join that follows on the same reducer reads the same pair lists.
#[must_use]
pub fn mark_indexed(
    query: &Query,
    grid: &Grid,
    cell: CellId,
    group: &GroupIndex<'_>,
) -> Vec<Vec<bool>> {
    let relations = group.relations();
    assert_eq!(
        relations.len(),
        query.num_relations(),
        "one rectangle set per relation position"
    );
    let graph = query.graph();
    let classes = group.classes(grid, cell);
    let mut pairs = internal_pairs(query);
    let mut marked: Vec<Vec<bool>> = relations.iter().map(|r| vec![false; r.len()]).collect();
    // The survivors of the subset under consideration, as a bitmap per
    // relation (what a row is filtered by) and as position lists (what the
    // fixpoint iterates over).
    let mut alive: Vec<Vec<bool>> = marked.clone();
    let mut crossing: Vec<Vec<(Predicate, Vec<bool>)>> = vec![Vec::new(); relations.len()];

    for mask in graph.connected_subsets(true) {
        debug_assert!(
            graph.has_outside_edge(mask),
            "a proper subset of a connected graph has an outside edge (C3)"
        );

        // C2 pre-filter: candidate lists per relation in S. A rectangle's
        // crossing flag for an obligation is the same in every subset that
        // imposes it, so it is computed when the first one does.
        let mut candidates: Vec<(RelationId, Vec<u32>)> = Vec::new();
        let mut empty = false;
        for rel in query.relations() {
            if mask & (1 << rel.index()) == 0 {
                continue;
            }
            let (rects, known) = (&relations[rel.index()], &mut crossing[rel.index()]);
            let obligations = graph.outside_edges(rel, mask);
            for &p in &obligations {
                if !known.iter().any(|&(q, _)| q == p) {
                    // Containment implies overlap, so its crossing
                    // obligation is the overlap one (§9's per-edge union
                    // extends naturally); the overlap one is the class's.
                    let flags = match p {
                        Predicate::Overlap | Predicate::Contains => {
                            classes[rel.index()].iter().map(|c| c.crosses()).collect()
                        }
                        Predicate::Range(d) => (rects.iter())
                            .map(|(r, _)| grid.other_cell_within(r, cell, d))
                            .collect(),
                    };
                    known.push((p, flags));
                }
            }
            let imposed = |(q, _): &&(Predicate, Vec<bool>)| obligations.contains(q);
            let list: Vec<u32> = (0..rects.len() as u32)
                .filter(|&i| known.iter().filter(imposed).all(|(_, f)| f[i as usize]))
                .collect();
            if list.is_empty() {
                empty = true;
                break;
            }
            candidates.push((rel, list));
        }
        if empty {
            continue;
        }
        for (rel, list) in &candidates {
            for &i in list {
                alive[rel.index()][i as usize] = true;
            }
        }

        // C1 via arc-consistency over the predicates internal to S.
        arc_consistency(group, mask, &mut pairs, &mut candidates, &mut alive);
        let consistent = candidates.iter().all(|(_, list)| !list.is_empty());
        for (rel, list) in &candidates {
            for &i in list {
                alive[rel.index()][i as usize] = false;
                marked[rel.index()][i as usize] |= consistent;
            }
        }
    }
    marked
}

/// The constraint between one relation pair `a < b`: the conjunction of
/// all parallel predicates between them (`flipped` records that the
/// triple listed the pair as `(b, a)`, so asymmetric predicates keep their
/// orientation), and the pair list supports are read from.
struct PairConstraint {
    a: RelationId,
    b: RelationId,
    predicates: Vec<(Predicate, bool)>,
    /// Built when the first subset holding both relations needs it.
    list: Option<Rc<PairList>>,
}

fn internal_pairs(query: &Query) -> Vec<PairConstraint> {
    let mut pairs: Vec<PairConstraint> = Vec::new();
    for t in query.triples() {
        let (a, b, flipped) = if t.left < t.right {
            (t.left, t.right, false)
        } else {
            (t.right, t.left, true)
        };
        if let Some(entry) = pairs.iter_mut().find(|p| (p.a, p.b) == (a, b)) {
            entry.predicates.push((t.predicate, flipped));
        } else {
            pairs.push(PairConstraint {
                a,
                b,
                predicates: vec![(t.predicate, flipped)],
                list: None,
            });
        }
    }
    pairs
}

/// Prunes candidate lists to arc consistency: a rectangle survives iff for
/// every internal edge of `mask` incident to its relation there exists a
/// supporting partner among the other relation's survivors.
///
/// Supports are read off the edge's pair list — the rectangle's row over
/// the *whole* other relation — keeping only partners the `alive` bitmap
/// still holds. Removing a rectangle can only remove supports, so whatever
/// order the removals happen in, the loop ends at the one greatest
/// arc-consistent subset of the candidates. On return `alive` is set
/// exactly at the listed survivors.
fn arc_consistency(
    group: &GroupIndex<'_>,
    mask: u32,
    pairs: &mut [PairConstraint],
    candidates: &mut [(RelationId, Vec<u32>)],
    alive: &mut [Vec<bool>],
) {
    let relations = group.relations();
    let inside =
        |p: &&mut PairConstraint| mask & (1 << p.a.index()) != 0 && mask & (1 << p.b.index()) != 0;
    let mut changed = true;
    while changed {
        changed = false;
        for pair in pairs.iter_mut().filter(inside) {
            let (a, b) = (pair.a.index(), pair.b.index());
            let predicates = &pair.predicates;
            // The list is swept at the tightest distance among the
            // parallel predicates: a support must satisfy all of them, so
            // it lies within the smallest of their distances, and the
            // smallest filters hardest. One symmetric predicate *is* that
            // list; anything else is then verified exactly.
            let list = pair.list.get_or_insert_with(|| {
                let d = predicates.iter().map(|(p, _)| p.distance());
                group.pairs(a, b, d.fold(f64::INFINITY, f64::min), None)
            });
            let exact = matches!(predicates[..], [(p, _)] if p.is_symmetric());
            // A predicate stored as (a -> b, flipped) evaluates left = a.
            let holds = |ra: &Rect, rb: &Rect| {
                exact
                    || predicates
                        .iter()
                        .all(|&(p, flipped)| p.eval_oriented(ra, rb, flipped))
            };
            for (from, to) in [(a, b), (b, a)] {
                let slot = candidates
                    .iter()
                    .position(|(r, _)| r.index() == from)
                    .expect("relation in subset");
                let rows = list.from(from, to);
                let mut from_alive = std::mem::take(&mut alive[from]);
                let before = candidates[slot].1.len();
                candidates[slot].1.retain(|&i| {
                    let rect = &relations[from][i as usize].0;
                    from_alive[i as usize] = rows.row(i as usize).iter().any(|&j| {
                        let partner = &relations[to][j as usize].0;
                        let (ra, rb) = if from == a {
                            (rect, partner)
                        } else {
                            (partner, rect)
                        };
                        alive[to][j as usize] && holds(ra, rb)
                    });
                    from_alive[i as usize]
                });
                changed |= candidates[slot].1.len() != before;
                alive[from] = from_alive;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_query::Query;

    /// Figure 5 of the paper: a 2x2 grid and the chain query Q1
    /// (R1 Ov R2 and R2 Ov R3 and R3 Ov R4). Relations R1..R4 hold the
    /// u, v, w, x rectangles. The geometry below reproduces every relation
    /// the worked example states.
    struct Fig5 {
        grid: Grid,
        query: Query,
        u: Vec<LocalRect>,
        v: Vec<LocalRect>,
        w: Vec<LocalRect>,
        x: Vec<LocalRect>,
    }

    #[allow(clippy::too_many_lines)]
    fn fig5() -> Fig5 {
        let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 2);
        let query = Query::builder()
            .overlap("R1", "R2")
            .overlap("R2", "R3")
            .overlap("R3", "R4")
            .build()
            .unwrap();
        // Ids are 1-based to match the paper's subscripts (u1 = id 1, ...).
        let u = vec![
            (Rect::new(0.5, 7.5, 0.5, 0.5), 1), // u1: isolated, inside c1
            (Rect::new(1.5, 6.0, 0.8, 0.8), 2), // u2: overlaps v3, inside c1
            (Rect::new(2.2, 3.8, 0.6, 0.6), 3), // u3: starts in c3, overlaps v3
        ];
        let v = vec![
            (Rect::new(0.4, 6.8, 0.4, 0.4), 1), // v1: isolated, inside c1
            (Rect::new(3.2, 4.9, 0.6, 0.4), 2), // v2: overlaps w1, does NOT cross
            (Rect::new(2.0, 6.5, 1.2, 3.0), 3), // v3: crosses into c3
            (Rect::new(3.5, 7.5, 1.0, 0.5), 4), // v4: crosses into c2, joins nothing
        ];
        let w = vec![
            (Rect::new(3.0, 5.0, 2.0, 2.0), 1), // w1: crosses all four cells
            (Rect::new(0.3, 5.2, 0.5, 0.8), 2), // w2: isolated, inside c1
        ];
        let x = vec![
            (Rect::new(4.5, 4.8, 0.4, 0.4), 1), // x1: in c2, overlaps w1
            (Rect::new(3.4, 4.6, 0.4, 0.4), 2), // x2: in c1, overlaps w1
        ];
        Fig5 {
            grid,
            query,
            u,
            v,
            w,
            x,
        }
    }

    /// Restricts relations to the rectangles split onto `cell`.
    fn at_cell(f: &Fig5, cell: CellId) -> Vec<Vec<LocalRect>> {
        [&f.u, &f.v, &f.w, &f.x]
            .iter()
            .map(|rel| {
                rel.iter()
                    .filter(|(r, _)| f.grid.split_cells(r).any(|c| c == cell))
                    .copied()
                    .collect()
            })
            .collect()
    }

    fn marked_ids(relations: &[Vec<LocalRect>], flags: &[Vec<bool>]) -> Vec<Vec<u32>> {
        relations
            .iter()
            .zip(flags)
            .map(|(rel, fl)| {
                rel.iter()
                    .zip(fl)
                    .filter(|(_, &m)| m)
                    .map(|(&(_, id), _)| id)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn geometry_reproduces_the_output_tuples() {
        // Sanity: exactly the four tuples the paper lists are the join
        // output of the full data.
        let f = fig5();
        let rels = vec![f.u.clone(), f.v.clone(), f.w.clone(), f.x.clone()];
        let got = crate::multiway::normalized(crate::multiway::brute_force_join(&f.query, &rels));
        assert_eq!(
            got,
            vec![
                vec![2, 3, 1, 1], // (u2, v3, w1, x1)
                vec![2, 3, 1, 2], // (u2, v3, w1, x2)
                vec![3, 3, 1, 1], // (u3, v3, w1, x1)
                vec![3, 3, 1, 2], // (u3, v3, w1, x2)
            ]
        );
    }

    #[test]
    fn figure5_reducer_c1_receives_the_stated_rectangles() {
        let f = fig5();
        let c1 = CellId::from_paper_number(1);
        let local = at_cell(&f, c1);
        // §7.7: reducer c1 receives u1, u2 | v1, v2, v3, v4 | w1, w2 — and
        // x2 (it participates in US_c1's set (v3, w1, x2)).
        let ids: Vec<Vec<u32>> = local
            .iter()
            .map(|rel| rel.iter().map(|&(_, id)| id).collect())
            .collect();
        assert_eq!(ids[0], vec![1, 2]);
        assert_eq!(ids[1], vec![1, 2, 3, 4]);
        assert_eq!(ids[2], vec![1, 2]);
        assert_eq!(ids[3], vec![2]);
    }

    #[test]
    fn figure5_marking_at_c1() {
        // §7.7: uS_c1 = {u2, v3, v4, w1, x2}; u1, v1, v2, w2 stay unmarked.
        let f = fig5();
        let c1 = CellId::from_paper_number(1);
        let local = at_cell(&f, c1);
        let flags = mark_for_replication(&f.query, &f.grid, c1, &local);
        assert_eq!(
            marked_ids(&local, &flags),
            vec![vec![2], vec![3, 4], vec![1], vec![2]]
        );
    }

    #[test]
    fn figure5_marking_at_c3() {
        // §7.7: at reducer c3 the set (u3, v3) qualifies; u3 starts in c3
        // and is replicated, v3 and w1 are marked but start in c1.
        let f = fig5();
        let c3 = CellId::from_paper_number(3);
        let local = at_cell(&f, c3);
        let flags = mark_for_replication(&f.query, &f.grid, c3, &local);
        let ids = marked_ids(&local, &flags);
        assert!(ids[0].contains(&3), "u3 must be marked at c3: {ids:?}");
        // Replication = marked AND starts in the cell.
        let replicated: Vec<Vec<u32>> = local
            .iter()
            .zip(&flags)
            .map(|(rel, fl)| {
                rel.iter()
                    .zip(fl)
                    .filter(|((r, _), &m)| m && f.grid.cell_of(r) == c3)
                    .map(|(&(_, id), _)| id)
                    .collect()
            })
            .collect();
        assert_eq!(replicated, vec![vec![3], vec![], vec![], vec![]]);
    }

    #[test]
    fn figure7_range_marking() {
        // Figure 7 / §8: Q3 = R1 Ra(d) R2 and R2 Ra(d) R3 on a 2x2 grid.
        // Reducer C1 marks u1 and v1 (v1 is within d of cell C2, and u1 is
        // within d of v1); v2 is not marked — no other cell is within d.
        let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 2);
        let d = 1.0;
        let query = Query::builder()
            .range("R1", "R2", d)
            .range("R2", "R3", d)
            .build()
            .unwrap();
        let u = vec![(Rect::new(1.9, 7.3, 0.5, 0.5), 1)];
        let v = vec![
            (Rect::new(2.8, 7.0, 0.7, 0.5), 1), // v1: within d of u1 and of C2
            (Rect::new(1.5, 6.0, 0.5, 0.5), 2), // v2: deep inside C1
        ];
        let w: Vec<LocalRect> = Vec::new();
        let c1 = CellId::from_paper_number(1);
        let local = vec![u.clone(), v.clone(), w];
        let flags = mark_for_replication(&query, &grid, c1, &local);
        assert_eq!(flags[0], vec![true], "u1 marked via the set (u1, v1)");
        assert_eq!(flags[1], vec![true, false], "v1 marked, v2 not");
    }

    #[test]
    fn range_marking_does_not_need_the_partner_to_exist() {
        // §8: "even if the rectangle w1 were more than distance d apart
        // from v1, u1 and v1 would have still required to be replicated as
        // reducer C1 has no way to figure that out" — marking is local.
        let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 2);
        let d = 1.0;
        let query = Query::builder()
            .range("R1", "R2", d)
            .range("R2", "R3", d)
            .build()
            .unwrap();
        let local = vec![
            vec![(Rect::new(1.9, 7.3, 0.5, 0.5), 1)],
            vec![(Rect::new(2.8, 7.0, 0.7, 0.5), 1)],
            Vec::new(), // no R3 rectangle anywhere near
        ];
        let flags = mark_for_replication(&query, &grid, CellId::from_paper_number(1), &local);
        assert_eq!(flags[0], vec![true]);
        assert_eq!(flags[1], vec![true]);
    }

    #[test]
    fn fully_local_tuple_is_not_marked() {
        // Condition C3: a set covering every relation of the query is not
        // marked — the reducer computes the tuple itself in round 2.
        let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 2);
        let query = Query::builder()
            .overlap("R1", "R2")
            .overlap("R2", "R3")
            .build()
            .unwrap();
        // A chain of three mutually overlapping rectangles deep inside c1.
        let local = vec![
            vec![(Rect::new(1.0, 7.0, 0.5, 0.5), 1)],
            vec![(Rect::new(1.2, 7.2, 0.5, 0.5), 1)],
            vec![(Rect::new(1.4, 7.0, 0.5, 0.5), 1)],
        ];
        let flags = mark_for_replication(&query, &grid, CellId::from_paper_number(1), &local);
        assert!(flags.iter().flatten().all(|&m| !m), "{flags:?}");
    }

    #[test]
    fn crossing_rectangle_with_no_partner_is_marked_when_singleton_qualifies() {
        // v4 of Figure 5: a crossing rectangle of a middle relation is
        // marked even though it joins nothing locally — the reducer cannot
        // rule out partners elsewhere.
        let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 2);
        let query = Query::builder()
            .overlap("R1", "R2")
            .overlap("R2", "R3")
            .build()
            .unwrap();
        let local = vec![
            Vec::new(),
            vec![(Rect::new(3.5, 7.5, 1.0, 0.5), 4)], // crosses into c2
            Vec::new(),
        ];
        let flags = mark_for_replication(&query, &grid, CellId::from_paper_number(1), &local);
        assert_eq!(flags[1], vec![true]);
    }

    #[test]
    fn non_crossing_isolated_rectangle_is_not_marked() {
        let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 2);
        let query = Query::builder()
            .overlap("R1", "R2")
            .overlap("R2", "R3")
            .build()
            .unwrap();
        let local = vec![
            Vec::new(),
            vec![(Rect::new(1.0, 7.0, 0.5, 0.5), 1)], // interior of c1
            Vec::new(),
        ];
        let flags = mark_for_replication(&query, &grid, CellId::from_paper_number(1), &local);
        assert_eq!(flags[1], vec![false]);
    }

    #[test]
    fn hybrid_query_uses_per_edge_crossing() {
        // §9: Q4 = R1 Ov R2 and R2 Ra(d) R3. An R2 rectangle with only the
        // range edge leading outside needs a cell within d; with only the
        // overlap edge outside it must cross.
        let grid = Grid::square((0.0, 80.0), (0.0, 80.0), 2);
        let d = 5.0;
        let query = Query::builder()
            .overlap("R1", "R2")
            .range("R2", "R3", d)
            .build()
            .unwrap();
        // v near the c1/c2 border (within d of c2 but not crossing), with a
        // local R1 partner overlapping it.
        let v = (Rect::new(36.0, 70.0, 2.0, 2.0), 1);
        let u = (Rect::new(35.0, 70.5, 2.0, 2.0), 1);
        let c1 = CellId::from_paper_number(1);
        // Subset {R1, R2}: outside edge is the range edge R2-R3 -> v needs
        // a cell within d (true: c2 is 2 units away), u has no obligation.
        let local = vec![vec![u], vec![v], Vec::new()];
        let flags = mark_for_replication(&query, &grid, c1, &local);
        assert_eq!(flags[0], vec![true]);
        assert_eq!(flags[1], vec![true]);

        // Move the pair far from every border: the range obligation fails,
        // nothing is marked (u's overlap edge to R2 is satisfied inside S).
        let v_far = (Rect::new(15.0, 60.0, 2.0, 2.0), 1);
        let u_far = (Rect::new(14.0, 60.5, 2.0, 2.0), 1);
        let local = vec![vec![u_far], vec![v_far], Vec::new()];
        let flags = mark_for_replication(&query, &grid, c1, &local);
        assert!(flags.iter().flatten().all(|&m| !m), "{flags:?}");
    }

    /// The C2 crossing test for one predicate by its definition (§7.4 for
    /// overlap, §8 for range, §9 takes the union for hybrid queries): the
    /// division's own crossing test, not the cell's comparison class.
    fn crosses_for_predicate(grid: &Grid, cell: CellId, rect: &Rect, p: Predicate) -> bool {
        match p {
            Predicate::Overlap | Predicate::Contains => grid.rect_crosses_cell(rect, cell),
            Predicate::Range(d) => grid.other_cell_within(rect, cell, d),
        }
    }

    /// Marking by definition: per connected proper subset, C2-filter the
    /// relations, then delete unsupported rectangles by nested loops until
    /// nothing changes. No index, no bitmap.
    fn mark_by_definition(
        query: &Query,
        grid: &Grid,
        cell: CellId,
        relations: &[Vec<LocalRect>],
    ) -> Vec<Vec<bool>> {
        let graph = query.graph();
        let mut marked: Vec<Vec<bool>> = relations.iter().map(|r| vec![false; r.len()]).collect();
        for mask in graph.connected_subsets(true) {
            let inside = |rel: RelationId| mask & (1 << rel.index()) != 0;
            let mut alive: Vec<Vec<bool>> =
                relations.iter().map(|r| vec![false; r.len()]).collect();
            for rel in query.relations().filter(|&rel| inside(rel)) {
                for (i, (rect, _)) in relations[rel.index()].iter().enumerate() {
                    alive[rel.index()][i] = graph
                        .outside_edges(rel, mask)
                        .iter()
                        .all(|p| crosses_for_predicate(grid, cell, rect, *p));
                }
            }
            loop {
                let before = alive.clone();
                for (rel, other) in query
                    .triples()
                    .iter()
                    .flat_map(|t| [(t.left, t.right), (t.right, t.left)])
                    .filter(|&(l, r)| inside(l) && inside(r))
                {
                    // Every parallel predicate between the pair must hold
                    // for one and the same partner.
                    let supports = |x: &Rect, y: &Rect| {
                        query.triples().iter().all(|t| {
                            if (t.left, t.right) == (rel, other) {
                                t.predicate.eval(x, y)
                            } else if (t.left, t.right) == (other, rel) {
                                t.predicate.eval(y, x)
                            } else {
                                true
                            }
                        })
                    };
                    for (i, (rect, _)) in relations[rel.index()].iter().enumerate() {
                        let supported = relations[other.index()]
                            .iter()
                            .zip(&before[other.index()])
                            .any(|((partner, _), &on)| on && supports(rect, partner));
                        alive[rel.index()][i] &= supported;
                    }
                }
                if alive == before {
                    break;
                }
            }
            let live = |rel: RelationId| alive[rel.index()].contains(&true);
            if query.relations().filter(|&r| inside(r)).all(live) {
                for (m, a) in marked.iter_mut().zip(&alive) {
                    for (m, &a) in m.iter_mut().zip(a) {
                        *m |= a;
                    }
                }
            }
        }
        marked
    }

    #[test]
    fn paper_fixtures_mark_as_marking_by_definition_does() {
        let f = fig5();
        for cell in (1..=4).map(CellId::from_paper_number) {
            let local = at_cell(&f, cell);
            assert_eq!(
                mark_for_replication(&f.query, &f.grid, cell, &local),
                mark_by_definition(&f.query, &f.grid, cell, &local),
                "Figure 5, {cell:?}"
            );
        }
        // Figure 7's reducer C1, with and without the far R3 rectangle.
        let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 2);
        let query = Query::parse("R1 ra(1) R2 and R2 ra(1) R3").unwrap();
        let u = vec![(Rect::new(1.9, 7.3, 0.5, 0.5), 1)];
        let v = vec![
            (Rect::new(2.8, 7.0, 0.7, 0.5), 1),
            (Rect::new(1.5, 6.0, 0.5, 0.5), 2),
        ];
        for w in [Vec::new(), vec![(Rect::new(3.9, 7.2, 0.4, 0.4), 1)]] {
            let local = vec![u.clone(), v.clone(), w];
            let c1 = CellId::from_paper_number(1);
            assert_eq!(
                mark_for_replication(&query, &grid, c1, &local),
                mark_by_definition(&query, &grid, c1, &local)
            );
        }
    }

    #[test]
    fn shared_index_marking_equals_marking_by_definition() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Unequal relations on a cell of a 3×3 grid, for a chain, a star,
        // a cycle, parallel edges and containment.
        let grid = Grid::square((0.0, 300.0), (0.0, 300.0), 3);
        let cell = grid.cell_at(1, 1);
        let mut rng = StdRng::seed_from_u64(16);
        let mut relation = |n: usize| -> Vec<LocalRect> {
            (0..n as u32)
                .map(|id| {
                    let x = rng.random_range(80.0..200.0);
                    let y = rng.random_range(110.0..220.0);
                    let (l, b) = (rng.random_range(0.0..25.0), rng.random_range(0.0..25.0));
                    (Rect::new(x, y, l, b), id)
                })
                .filter(|(r, _)| grid.splits_onto(r, cell))
                .collect()
        };
        let rels = vec![relation(150), relation(40), relation(90)];
        for text in [
            "A ov B and B ov C",
            "B ov A and B ra(4) C",
            "A ra(6) B and B ov C and C ra(9) A",
            "A ov B and A ra(3) B and B ra(12) C",
            "A contains B and C ov B",
        ] {
            let query = Query::parse(text).unwrap();
            let got = mark_for_replication(&query, &grid, cell, &rels);
            assert_eq!(
                got,
                mark_by_definition(&query, &grid, cell, &rels),
                "{text}"
            );
            assert!(got.iter().flatten().any(|&m| m), "{text}: nothing marked");
            assert!(
                got.iter().flatten().any(|&m| !m),
                "{text}: everything marked"
            );
        }
    }
}
