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
//! `local.kernel_ms` in `benchmark/` is the number. The same 64 groups
//! also bound the sweep's work, counted in tests per kept pair.

use mwsj_datagen::SyntheticConfig;
use mwsj_local::{multiway, GroupIndex, JoinKernel, LocalRect};
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

/// The benchmark's Q2 relations, whole and split onto its 8 × 8 grid as
/// the round-1 reducers receive them.
fn benchmark_groups() -> (Vec<Vec<LocalRect>>, Vec<Vec<Vec<LocalRect>>>) {
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
    (whole, cells)
}

#[test]
fn kernel_equals_naive_matcher_on_the_benchmark_input() {
    let q2 = Query::parse("A ov B and B ov C").unwrap();
    let (whole, cells) = benchmark_groups();
    // A tuple is found in every cell all its members reach, so the split
    // groups count the boundary-crossing ones more than once.
    let split = assert_identical("reducer_groups_64x1000_q2", &q2, &cells);
    let single = assert_identical("whole_input_3x20k", &q2, &[whole]);
    assert!(single > 0 && split >= single, "{split} vs {single}");
}

#[test]
fn sweep_work_per_kept_pair_stays_bounded_on_the_reducer_groups() {
    // Every overlap test the kernel's sweeps make over the 64 groups,
    // per pair they keep: 3.1 (243 308 for 78 167) with each cell-sized
    // group cut into strips about four mean heights tall, 13.1 when a
    // group of under 256 a side was one strip and every opening
    // rectangle met its whole column.
    let q2 = Query::parse("A ov B and B ov C").unwrap();
    let (_, cells) = benchmark_groups();
    let kernel = JoinKernel::new(&q2);
    let (mut tests, mut kept) = (0, 0);
    for group in &cells {
        let index = GroupIndex::new(group);
        kernel.execute_on(&index, |_| {});
        let (t, p) = index.sweep_counts();
        tests += t;
        kept += p;
    }
    assert!(kept > 50_000, "the groups should keep pairs: {kept}");
    let per_pair = tests as f64 / kept as f64;
    assert!(
        per_pair < 4.0,
        "{tests} tests for {kept} pairs: {per_pair:.2} a pair"
    );
}
