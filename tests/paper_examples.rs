//! Exact reproductions of the worked examples in the paper's figures.
//!
//! The paper's figures are conceptual (not measured plots); each one walks
//! a small geometric configuration through part of the machinery. These
//! tests pin the full pipeline to those walkthroughs: Figure 2 (the
//! project / split / replicate routing of `Grid`), Figure 3 (All-Replicate
//! routing and the §6.2 designated reducer), Figure 4 (the crossing-pair
//! motivation of §7.6), Figure 5 (the complete Controlled-Replicate
//! example of §7.7) and Figure 6/8 (the C-Rep-L bounds, covered in
//! `mwsj-query`). Figure 7's range-marking example is unit-tested in
//! `mwsj_local::marking`.

use mwsj_core::{reference, Algorithm, Cluster, ClusterConfig};
use mwsj_geom::Rect;
use mwsj_partition::{CellId, Grid};
use mwsj_query::Query;

fn numbers(cells: impl IntoIterator<Item = CellId>) -> Vec<u32> {
    cells.into_iter().map(CellId::paper_number).collect()
}

// ---------------------------------------------------------------- Figure 2

#[test]
fn figure2_project_split_replicate() {
    // Figure 2(a)/(c): 4x4 grid; r1 starts in cell 6 and extends into 7.
    // Project -> {6}; Split -> {6, 7}; Replicate f1 -> 4th quadrant
    // {6-8, 10-12, 14-16}; Replicate f2 with a one-cell reach -> {6, 7,
    // 10, 11}.
    let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 4);
    let r1 = Rect::new(3.0, 5.5, 1.5, 1.0);
    assert_eq!(numbers([grid.cell_of(&r1)]), [6]);
    assert_eq!(numbers(grid.split_cells(&r1)), [6, 7]);
    assert_eq!(
        numbers(grid.fourth_quadrant_cells(&r1)),
        [6, 7, 8, 10, 11, 12, 14, 15, 16]
    );
    assert_eq!(
        numbers(grid.fourth_quadrant_cells_within(&r1, 0.5, 0.5)),
        [6, 7, 10, 11]
    );
}

#[test]
fn figure2b_split_enlarged() {
    // Figure 2(b): r1 enlarged by d overlaps cells 2-4, 6-8 and 10-12.
    let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 4);
    let r1 = Rect::new(3.0, 5.5, 2.5, 1.0);
    let d = 1.0; // pushes the enlarged rect into rows 0 and 2, columns 1-3
    assert_eq!(
        numbers(grid.split_cells_enlarged(&r1, d)),
        [2, 3, 4, 6, 7, 8, 10, 11, 12]
    );
}

#[test]
fn figure2_overlap_needs_split_not_project() {
    // §5.2's counterexample: r1 projected reaches only reducer 6, r2 split
    // reaches reducers 3 and 7 — no reducer sees both, although they
    // overlap. Splitting both fixes it.
    let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 4);
    let r1 = Rect::new(3.0, 5.5, 1.5, 1.0); // cell 6, into 7
    let r2 = Rect::new(4.2, 6.5, 0.8, 1.5); // cell 3, into 7
    assert!(r1.overlaps(&r2));
    let proj1 = grid.cell_of(&r1);
    let split2: Vec<CellId> = grid.split_cells(&r2).collect();
    assert!(!split2.contains(&proj1));
    assert!(grid.split_cells(&r1).any(|c| split2.contains(&c)));
}

// ---------------------------------------------------------------- Figure 3

/// Figure 3's four-relation chain Q1 on an 8x4 grid of 32 reducers.
#[test]
fn figure3_all_replicate_routing_and_designated_reducer() {
    let grid = Grid::new((0.0, 80.0), (0.0, 40.0), 8, 4);
    // The tuple U = (u1, v1, w1, x1) — geometry reconstructed from the
    // figure (see tests in mwsj-local::dedup for the designated point).
    let u1 = Rect::new(15.0, 15.0, 4.0, 4.0); // cell 18 only, lowermost
    let v1 = Rect::new(14.0, 25.0, 5.0, 12.0); // cells 10 + 18
    let w1 = Rect::new(16.0, 36.0, 8.0, 14.0); // cells 2, 3, 10, 11
    let x1 = Rect::new(23.0, 34.0, 3.0, 8.0); // cells 3 + 11, rightmost
    for (r, expect_cell) in [(u1, 18), (v1, 10), (w1, 2), (x1, 3)] {
        assert_eq!(grid.cell_of(&r).paper_number(), expect_cell);
    }
    // The split targets the figure states for each rectangle.
    assert_eq!(numbers(grid.split_cells(&u1)), [18]);
    assert_eq!(numbers(grid.split_cells(&v1)), [10, 18]);
    assert_eq!(numbers(grid.split_cells(&w1)), [2, 3, 10, 11]);
    assert_eq!(numbers(grid.split_cells(&x1)), [3, 11]);

    // §6.1: after f1 replication, reducers 19-24 and 27-32 receive all
    // four rectangles.
    let targets: Vec<Vec<u32>> = [u1, v1, w1, x1]
        .iter()
        .map(|r| numbers(grid.fourth_quadrant_cells(r)))
        .collect();
    let all_four: Vec<u32> = (1..=32)
        .filter(|c| targets.iter().all(|t| t.contains(c)))
        .collect();
    assert_eq!(all_four, [19, 20, 21, 22, 23, 24, 27, 28, 29, 30, 31, 32]);

    // §6.2: the designated reducer is 19 (the cell of (x1.x, u1.y)), and
    // the full All-Replicate run produces the tuple exactly once.
    let q = Query::parse("R1 ov R2 and R2 ov R3 and R3 ov R4").unwrap();
    let cluster = Cluster::new(ClusterConfig {
        x_range: (0.0, 80.0),
        y_range: (0.0, 40.0),
        grid_cols: 8,
        grid_rows: 4,
        engine: mwsj_mapreduce::EngineConfig::default(),
    });
    let out = cluster.run(&q, &[&[u1], &[v1], &[w1], &[x1]], Algorithm::AllReplicate);
    assert_eq!(out.tuples, vec![vec![0, 0, 0, 0]]);
}

#[test]
fn figure3_isolated_u4_is_replicated_everywhere() {
    // §6.4: rectangle u4 sits in cell 1 and joins nothing, yet
    // All-Replicate communicates it to all 32 reducers — the waste C-Rep
    // eliminates.
    let grid = Grid::new((0.0, 80.0), (0.0, 40.0), 8, 4);
    let u4 = Rect::new(2.0, 38.0, 3.0, 3.0);
    assert_eq!(grid.cell_of(&u4).paper_number(), 1);
    assert_eq!(grid.fourth_quadrant_cells(&u4).len(), 32);
}

// ---------------------------------------------------------------- Figure 5

/// The complete §7.7 walkthrough: 2x2 grid, chain query Q1, the u/v/w/x
/// rectangles. (The same geometry is unit-tested against the marking
/// procedure in `mwsj-local`; here the full two-round C-Rep pipeline runs.)
struct Fig5 {
    u: Vec<Rect>,
    v: Vec<Rect>,
    w: Vec<Rect>,
    x: Vec<Rect>,
}

fn fig5() -> Fig5 {
    Fig5 {
        u: vec![
            Rect::new(0.5, 7.5, 0.5, 0.5), // u1
            Rect::new(1.5, 6.0, 0.8, 0.8), // u2
            Rect::new(2.2, 3.8, 0.6, 0.6), // u3
        ],
        v: vec![
            Rect::new(0.4, 6.8, 0.4, 0.4), // v1
            Rect::new(3.2, 4.9, 0.6, 0.4), // v2
            Rect::new(2.0, 6.5, 1.2, 3.0), // v3
            Rect::new(3.5, 7.5, 1.0, 0.5), // v4
        ],
        w: vec![
            Rect::new(3.0, 5.0, 2.0, 2.0), // w1
            Rect::new(0.3, 5.2, 0.5, 0.8), // w2
        ],
        x: vec![
            Rect::new(4.5, 4.8, 0.4, 0.4), // x1
            Rect::new(3.4, 4.6, 0.4, 0.4), // x2
        ],
    }
}

#[test]
fn figure5_controlled_replicate_end_to_end() {
    let f = fig5();
    let q = Query::parse("R1 ov R2 and R2 ov R3 and R3 ov R4").unwrap();
    let cluster = Cluster::new(ClusterConfig::for_space((0.0, 8.0), (0.0, 8.0), 2));

    let expected = reference::in_memory_join(&q, &[&f.u, &f.v, &f.w, &f.x]);
    // §7.7: the output is (u2,v3,w1,x1), (u2,v3,w1,x2), (u3,v3,w1,x1),
    // (u3,v3,w1,x2) — 0-based ids below.
    assert_eq!(
        expected,
        vec![
            vec![1, 2, 0, 0],
            vec![1, 2, 0, 1],
            vec![2, 2, 0, 0],
            vec![2, 2, 0, 1],
        ]
    );

    for alg in [
        Algorithm::ControlledReplicate,
        Algorithm::ControlledReplicateLimit,
    ] {
        let out = cluster.run(&q, &[&f.u, &f.v, &f.w, &f.x], alg);
        assert_eq!(out.tuples, expected, "{}", alg.name());
        // §7.7 marks u2, v3, v4, w1, x2 at c1 and u3 at c3; our run also
        // marks x1 at c2 (via the set (w1, x1) — the paper's walkthrough
        // only details reducer c1): 7 rectangles replicated in total.
        assert_eq!(out.stats.rectangles_replicated, 7, "{}", alg.name());
    }
}

#[test]
fn figure5_crep_beats_all_rep_on_communication() {
    let f = fig5();
    let q = Query::parse("R1 ov R2 and R2 ov R3 and R3 ov R4").unwrap();
    let cluster = Cluster::new(ClusterConfig::for_space((0.0, 8.0), (0.0, 8.0), 2));
    let all = cluster.run(&q, &[&f.u, &f.v, &f.w, &f.x], Algorithm::AllReplicate);
    let crep = cluster.run(
        &q,
        &[&f.u, &f.v, &f.w, &f.x],
        Algorithm::ControlledReplicate,
    );
    assert_eq!(all.tuples, crep.tuples);
    // All-Rep replicates all 11 rectangles; C-Rep only 7.
    assert_eq!(all.stats.rectangles_replicated, 11);
    assert_eq!(crep.stats.rectangles_replicated, 7);
    assert!(crep.stats.rectangles_after_replication < all.stats.rectangles_after_replication);
}

// ---------------------------------------------------------------- Figure 4

#[test]
fn figure4_crossing_pair_is_replicated_and_output_lands_at_c4() {
    // Figure 4 (§7.6): a 2x2 grid; v1 and w1 overlap each other inside c1
    // and both cross its boundary; u1 and x1 sit outside c1. Reducer c1
    // must replicate v1 and w1 (the consistent set (v1, w1) satisfies
    // C1-C3), and the output tuple (u1, v1, w1, x1) is computed by c4.
    let grid = Grid::square((0.0, 8.0), (0.0, 8.0), 2);
    let q = Query::parse("R1 ov R2 and R2 ov R3 and R3 ov R4").unwrap();
    let v1 = Rect::new(3.0, 5.0, 2.0, 0.8); // crosses right into c2
    let w1 = Rect::new(3.5, 5.2, 0.8, 2.0); // overlaps v1, crosses down into c3
    let u1 = Rect::new(4.9, 5.1, 0.6, 0.6); // in c2, overlaps v1
    let x1 = Rect::new(3.6, 3.4, 0.6, 0.6); // in c3, overlaps w1
    assert!(v1.overlaps(&w1) && u1.overlaps(&v1) && w1.overlaps(&x1));
    let c1 = CellId::from_paper_number(1);
    assert_eq!(grid.cell_of(&v1), c1);
    assert_eq!(grid.cell_of(&w1), c1);

    // Marking at c1 replicates v1 and w1.
    let local = vec![Vec::new(), vec![(v1, 1)], vec![(w1, 1)], Vec::new()];
    let flags = mwsj_local::marking::mark_for_replication(&q, &grid, c1, &local);
    assert_eq!(flags[1], vec![true], "v1 must be marked");
    assert_eq!(flags[2], vec![true], "w1 must be marked");

    // End-to-end, the tuple is produced once; its designated cell is c4
    // (the duplicate-avoidance point combines u1's x with x1's y).
    let designated = mwsj_local::dedup::multiway_tuple_cell_of(&grid, &[u1, v1, w1, x1]);
    assert_eq!(designated.paper_number(), 4);
    let cluster = Cluster::new(ClusterConfig::for_space((0.0, 8.0), (0.0, 8.0), 2));
    let out = cluster.run(
        &q,
        &[&[u1], &[v1], &[w1], &[x1]],
        Algorithm::ControlledReplicate,
    );
    assert_eq!(out.tuples, vec![vec![0, 0, 0, 0]]);
}

// ------------------------------------------------------------- Figure 6/8

#[test]
fn figure6_and_8_replication_bounds() {
    // Figure 6 (§7.9): overlap chain of four — ends replicate to 2*d_max,
    // middles to d_max. Figure 8 (§8): range chain of four — ends to
    // 2*d_max + 3*d, middles to d_max + 2*d.
    let d_max = 11.0;
    let q_ov = Query::parse("R1 ov R2 and R2 ov R3 and R3 ov R4").unwrap();
    assert_eq!(
        mwsj_query::replication_bounds(&q_ov, d_max),
        vec![22.0, 11.0, 11.0, 22.0]
    );
    let d = 3.0;
    let q_ra = Query::parse("R1 ra(3) R2 and R2 ra(3) R3 and R3 ra(3) R4").unwrap();
    assert_eq!(
        mwsj_query::replication_bounds(&q_ra, d_max),
        vec![
            2.0 * d_max + 3.0 * d,
            d_max + 2.0 * d,
            d_max + 2.0 * d,
            2.0 * d_max + 3.0 * d
        ]
    );
}
