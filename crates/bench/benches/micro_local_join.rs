//! Micro-benchmark for the reducer-local multi-way join: the naive
//! recursive matcher (per-group graph walk, `min_by` probe selection,
//! one R-tree per relation walked once per partial tuple, fresh
//! allocations everywhere) vs the precompiled [`mwsj_local::JoinKernel`]
//! the distributed reducers run (static per-depth probe/verify lists, one
//! sorted sweep per join-graph edge into adjacency rows, iterative stack
//! over a reusable scratch arena).
//!
//! The two share no candidate generation — the naive matcher walks trees,
//! the kernel reads swept pair lists — so the naive matcher is an
//! independent oracle: every workload runs both on identical inputs and
//! asserts the *normalized outputs are identical* before any timing is
//! reported. A result mismatch fails the bench (and the CI perf-smoke
//! step that runs it). Timings land in `BENCH_local.json`; kernel rows
//! also carry the exact number of overlap tests the sweeps executed and
//! of pairs they reported — the ratio the strip rule controls.
//!
//! The `reducer_groups` workloads are the production shape: many per-cell
//! groups through one compiled kernel. `reducer_groups_64x1000_q2` is the
//! repo benchmark's own input (Q2 over 3 × 20 000, split onto its 8 × 8
//! grid); `whole_input_3x20k` is the same input as one group, where the
//! sweep cuts strips.

use std::time::{Duration, Instant};

use mwsj_bench::BenchLog;
use mwsj_datagen::SyntheticConfig;
use mwsj_local::{multiway, GroupIndex, JoinKernel, LocalRect};
use mwsj_partition::Grid;
use mwsj_query::Query;

const REPS: usize = 3;

fn relation(n: usize, seed: u64) -> Vec<LocalRect> {
    let mut cfg = SyntheticConfig::paper_default(n, seed);
    cfg.x_range = (0.0, 10_000.0);
    cfg.y_range = (0.0, 10_000.0);
    cfg.generate()
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, i as u32))
        .collect()
}

/// Splits one relation into `groups` spatially coherent chunks (sorted by
/// start x, then chunked) — a stand-in for the per-cell groups a reducer
/// sees (small, many, same query, members close enough to join).
fn grouped(rel: &[LocalRect], groups: usize) -> Vec<Vec<LocalRect>> {
    let mut sorted = rel.to_vec();
    sorted.sort_by(|a, b| a.0.x().total_cmp(&b.0.x()));
    let chunk = sorted.len().div_ceil(groups).max(1);
    sorted.chunks(chunk).map(<[LocalRect]>::to_vec).collect()
}

struct Timed {
    best: Duration,
    tuples: usize,
    /// `(overlap tests, pairs reported)` of the kernel's sweeps.
    sweeps: Option<(u64, u64)>,
}

/// Best of [`REPS`] runs of `f`, which returns the tuple count (the
/// returned tuples themselves are compared once, outside the timing).
fn best_of(mut f: impl FnMut() -> usize) -> Timed {
    let mut best = Duration::MAX;
    let mut tuples = 0;
    for _ in 0..REPS {
        let t0 = Instant::now();
        tuples = f();
        best = best.min(t0.elapsed());
    }
    Timed {
        best,
        tuples,
        sweeps: None,
    }
}

/// [`best_of`] for the kernel over `groups`, with its sweep counts.
fn kernel_over(query: &Query, groups: &[Vec<Vec<LocalRect>>]) -> Timed {
    let kernel = JoinKernel::new(query);
    let mut sweeps = (0, 0);
    let timed = best_of(|| {
        let mut n = 0;
        sweeps = (0, 0);
        for g in groups {
            let group = GroupIndex::new(g);
            kernel.execute_on(&group, |_| n += 1);
            let (tests, pairs) = group.sweep_counts();
            sweeps = (sweeps.0 + tests, sweeps.1 + pairs);
        }
        n
    });
    Timed {
        sweeps: Some(sweeps),
        ..timed
    }
}

/// Both matchers over `groups`: identity asserted, then timed.
fn compare(log: &mut BenchLog, name: &str, query: &Query, groups: &[Vec<Vec<LocalRect>>]) {
    for g in groups {
        let expected = multiway::normalized(multiway::multiway_join_ids_naive(query, g));
        let got = multiway::normalized(multiway::multiway_join_ids(query, g));
        assert_eq!(expected, got, "{name}: kernel deviates from naive matcher");
    }
    let naive = best_of(|| {
        let ids = |g: &Vec<Vec<LocalRect>>| multiway::multiway_join_ids_naive(query, g).len();
        groups.iter().map(ids).sum()
    });
    let kernel = kernel_over(query, groups);
    assert_eq!(naive.tuples, kernel.tuples, "{name}");
    report(log, name, &naive, &kernel);
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Workload {
    name: &'static str,
    query: Query,
    relations: Vec<Vec<LocalRect>>,
}

fn workloads() -> Vec<Workload> {
    let a = relation(3_000, 1);
    let b = relation(3_000, 2);
    let c = relation(3_000, 3);
    let d = relation(3_000, 4);
    vec![
        Workload {
            name: "2way_overlap_3k",
            query: Query::parse("A ov B").unwrap(),
            relations: vec![a.clone(), b.clone()],
        },
        Workload {
            name: "3chain_overlap_3k",
            query: Query::parse("A ov B and B ov C").unwrap(),
            relations: vec![a.clone(), b.clone(), c.clone()],
        },
        Workload {
            name: "3chain_hybrid_3k",
            query: Query::parse("A ov B and B ra(60) C").unwrap(),
            relations: vec![a.clone(), b.clone(), c.clone()],
        },
        Workload {
            name: "4star_overlap_3k",
            query: Query::parse("C ov L1 and C ov L2 and C ov L3").unwrap(),
            relations: vec![a.clone(), b.clone(), c, d],
        },
        Workload {
            name: "3cycle_overlap_3k",
            query: Query::parse("A ov B and B ov C and C ov A").unwrap(),
            relations: vec![a, b, relation(3_000, 5)],
        },
    ]
}

fn main() {
    let mut log = BenchLog::new("local");
    println!("=== local-join micro-bench: naive recursive matcher vs compiled kernel ===");
    println!("best of {REPS} runs per implementation; outputs asserted identical");
    println!();
    println!(
        "workload                     | naive ms | kernel ms | speedup | tuples | tests/pairs"
    );
    println!(
        "-----------------------------+----------+-----------+---------+--------+------------"
    );

    for w in workloads() {
        compare(&mut log, w.name, &w.query, &[w.relations]);
    }

    // The production shape: 64 small groups through one compiled kernel
    // (plan compiled once, scratch warm after the first group) vs the
    // naive matcher rebuilding its walk per group.
    let q = Query::parse("A ov B and B ov C").unwrap();
    let parts: Vec<Vec<Vec<LocalRect>>> = (0..3)
        .map(|i| grouped(&relation(6_400, 10 + i), 64))
        .collect();
    let groups: Vec<Vec<Vec<LocalRect>>> = (0..64)
        .map(|g| (0..3).map(|r| parts[r][g].clone()).collect())
        .collect();
    compare(&mut log, "reducer_groups_64x100_3chain", &q, &groups);

    // The repo benchmark's input (`benchmark/src/workloads.rs`: seed 1,
    // relation seeds 1000..1002) as its round-1 reducers receive it, and
    // as one group.
    let whole: Vec<Vec<LocalRect>> = (0..3).map(|i| relation(20_000, 1_000 + i)).collect();
    let grid = Grid::square((0.0, 10_000.0), (0.0, 10_000.0), 8);
    let mut cells = vec![vec![Vec::new(); 3]; grid.num_cells() as usize];
    for (position, rel) in whole.iter().enumerate() {
        for &(rect, id) in rel {
            for cell in grid.split_cells(&rect) {
                cells[cell.0 as usize][position].push((rect, id));
            }
        }
    }
    compare(&mut log, "reducer_groups_64x1000_q2", &q, &cells);
    compare(&mut log, "whole_input_3x20k", &q, &[whole]);

    log.write().expect("write BENCH_local.json");
}

fn report(log: &mut BenchLog, name: &str, naive: &Timed, kernel: &Timed) {
    let (tests, pairs) = kernel.sweeps.expect("kernel rows carry sweep counts");
    println!(
        "{:<28} | {:>8.3} | {:>9.3} | {:>6.2}x | {:>6} | {tests}/{pairs}",
        name,
        ms(naive.best),
        ms(kernel.best),
        naive.best.as_secs_f64() / kernel.best.as_secs_f64().max(1e-9),
        kernel.tuples
    );
    for (im, t) in [("naive", naive), ("kernel", kernel)] {
        let counts = t.sweeps.map_or(String::new(), |(tests, pairs)| {
            format!(",\"overlap_tests\":{tests},\"pairs_reported\":{pairs}")
        });
        log.push_record(format!(
            "{{\"workload\":{name:?},\"impl\":{im:?},\"best_ms\":{ms:.3},\"reps\":{REPS},\"tuples\":{tuples}{counts}}}",
            name = name,
            im = im,
            ms = ms(t.best),
            tuples = t.tuples
        ));
    }
}
