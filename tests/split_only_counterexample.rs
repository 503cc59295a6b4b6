//! §6.3: *"Why Splitting all Relations does not work"* — executable proof.
//!
//! A 2-way overlap join is correct when both relations are split (§5.2),
//! but a multi-way join is not: members of an output tuple can be pairwise
//! chained without any single cell seeing all of them. This test implements
//! the naive split-everything strategy and demonstrates that it loses
//! exactly the tuples the paper predicts, on both the paper's Figure 3
//! geometry and random workloads.

use mwsj_core::{local, reference, TaggedRect};
use mwsj_geom::Rect;
use mwsj_local::LocalRect;
use mwsj_partition::Grid;
use mwsj_query::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The broken strategy: split every relation, join locally, dedup globally.
fn split_only_join(query: &Query, relations: &[&[Rect]], grid: &Grid) -> Vec<Vec<u32>> {
    let n = query.num_relations();
    let mut out = Vec::new();
    for cell in grid.cells() {
        let local_rels: Vec<Vec<LocalRect>> = (0..n)
            .map(|pos| {
                relations[pos]
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| grid.split_cells(r).any(|c| c == cell))
                    .map(|(id, r)| (*r, id as u32))
                    .collect()
            })
            .collect();
        local::multiway::multiway_join(query, &local_rels, |tuple| {
            out.push(tuple.iter().map(|&(_, id)| id).collect());
        });
    }
    out.sort();
    out.dedup();
    out
}

#[test]
fn figure3_tuple_is_lost_by_split_only() {
    // The Figure 3 geometry (see tests/paper_examples.rs): u1 is received
    // only by reducer 18, v1 by 10 and 18, w1 by 2/3/10/11, x1 by 3/11 —
    // no reducer receives all four, so the tuple cannot be computed.
    let grid = Grid::new((0.0, 80.0), (0.0, 40.0), 8, 4);
    let u1 = Rect::new(15.0, 15.0, 4.0, 4.0);
    let v1 = Rect::new(14.0, 25.0, 5.0, 12.0);
    let w1 = Rect::new(16.0, 36.0, 8.0, 14.0);
    let x1 = Rect::new(23.0, 34.0, 3.0, 8.0);
    let q = Query::parse("R1 ov R2 and R2 ov R3 and R3 ov R4").unwrap();
    let rels: [&[Rect]; 4] = [&[u1], &[v1], &[w1], &[x1]];

    let expected = reference::in_memory_join(&q, &rels);
    assert_eq!(expected, vec![vec![0, 0, 0, 0]], "the tuple exists");
    let got = split_only_join(&q, &rels, &grid);
    assert!(got.is_empty(), "split-only must lose the Figure 3 tuple");
}

#[test]
fn split_only_is_complete_for_two_way_joins() {
    // §5.2: for 2-way overlap joins splitting both sides IS correct — two
    // overlapping rectangles always share a cell.
    let mut rng = StdRng::seed_from_u64(3);
    let gen = |rng: &mut StdRng| -> Vec<Rect> {
        (0..200)
            .map(|_| {
                let x = rng.random_range(0.0..950.0);
                let y = rng.random_range(50.0..1000.0);
                Rect::new(
                    x,
                    y,
                    rng.random_range(0.0..50.0),
                    rng.random_range(0.0..50.0),
                )
            })
            .collect()
    };
    let (a, b) = (gen(&mut rng), gen(&mut rng));
    let q = Query::parse("A ov B").unwrap();
    let grid = Grid::square((0.0, 1000.0), (0.0, 1000.0), 8);
    assert_eq!(
        split_only_join(&q, &[&a, &b], &grid),
        reference::in_memory_join(&q, &[&a, &b])
    );
}

#[test]
fn split_only_underreports_on_random_three_way_workloads() {
    // On dense random data, split-only finds a subset of the true result
    // and — with chains long relative to the cell size — strictly misses
    // tuples.
    let mut rng = StdRng::seed_from_u64(17);
    let gen = |rng: &mut StdRng| -> Vec<Rect> {
        (0..250)
            .map(|_| {
                let x = rng.random_range(0.0..900.0);
                let y = rng.random_range(100.0..1000.0);
                Rect::new(
                    x,
                    y,
                    rng.random_range(0.0..100.0),
                    rng.random_range(0.0..100.0),
                )
            })
            .collect()
    };
    let (a, b, c) = (gen(&mut rng), gen(&mut rng), gen(&mut rng));
    let q = Query::parse("A ov B and B ov C").unwrap();
    // Small cells relative to the rectangles make chains straddle cells.
    let grid = Grid::square((0.0, 1000.0), (0.0, 1000.0), 16);

    let expected = reference::in_memory_join(&q, &[&a, &b, &c]);
    let got = split_only_join(&q, &[&a, &b, &c], &grid);
    // Soundness: never invents tuples.
    for t in &got {
        assert!(expected.contains(t));
    }
    // Incompleteness: strictly misses some.
    assert!(
        got.len() < expected.len(),
        "split-only found {} of {} tuples — expected a strict loss",
        got.len(),
        expected.len()
    );
}

#[test]
fn tagged_rect_roundtrip() {
    // Exercise the public TaggedRect surface alongside this suite.
    let tr = TaggedRect::new(mwsj_query::RelationId(2), 9, Rect::new(1.0, 2.0, 3.0, 1.0));
    assert_eq!(tr.relation.index(), 2);
    assert_eq!(tr.id, 9);
    assert_eq!(tr.rect.l(), 3.0);
}
