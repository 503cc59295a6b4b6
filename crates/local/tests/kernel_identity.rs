//! The compiled [`mwsj_local::JoinKernel`] against the naive recursive
//! matcher on the repo benchmark's own input.
//!
//! The two share no candidate generation — the naive matcher walks an
//! R-tree per relation, the kernel reads swept pair lists — so the naive
//! matcher is an independent oracle. The input is `benchmark/`'s Q2
//! (`benchmark/src/workloads.rs`: seed 1, relation seeds 1000..1002,
//! 3 × 20 000 rectangles), once as its round-1 reducers receive it (split
//! onto the 8 × 8 grid: 64 groups of about 1 000 a relation) and once as
//! a single group, where the sweep cuts strips. No timing:
//! `local.kernel_ms` in `benchmark/` is the number.

use mwsj_datagen::SyntheticConfig;
use mwsj_local::{multiway, LocalRect};
use mwsj_partition::Grid;
use mwsj_query::Query;

const EXTENT: (f64, f64) = (0.0, 10_000.0);

fn relation(n: usize, seed: u64) -> Vec<LocalRect> {
    let mut cfg = SyntheticConfig::paper_default(n, seed);
    cfg.x_range = EXTENT;
    cfg.y_range = EXTENT;
    cfg.generate()
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, i as u32))
        .collect()
}

fn assert_identical(name: &str, query: &Query, groups: &[Vec<Vec<LocalRect>>]) -> usize {
    let mut tuples = 0;
    for group in groups {
        let expected = multiway::normalized(multiway::multiway_join_ids_naive(query, group));
        let got = multiway::normalized(multiway::multiway_join_ids(query, group));
        assert_eq!(expected, got, "{name}: kernel deviates from naive matcher");
        tuples += got.len();
    }
    tuples
}

#[test]
fn kernel_equals_naive_matcher_on_the_benchmark_input() {
    let q2 = Query::parse("A ov B and B ov C").unwrap();
    let whole: Vec<Vec<LocalRect>> = (0..3).map(|i| relation(20_000, 1_000 + i)).collect();

    let grid = Grid::square(EXTENT, EXTENT, 8);
    let mut cells = vec![vec![Vec::new(); 3]; grid.num_cells() as usize];
    for (position, rel) in whole.iter().enumerate() {
        for &(rect, id) in rel {
            for cell in grid.split_cells(&rect) {
                cells[cell.0 as usize][position].push((rect, id));
            }
        }
    }
    // A tuple is found in every cell all its members reach, so the split
    // groups count the boundary-crossing ones more than once.
    let split = assert_identical("reducer_groups_64x1000_q2", &q2, &cells);
    let single = assert_identical("whole_input_3x20k", &q2, &[whole]);
    assert!(single > 0 && split >= single, "{split} vs {single}");
}
