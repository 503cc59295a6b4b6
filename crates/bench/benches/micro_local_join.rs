//! Micro-benchmark for the reducer-local multi-way join: the naive
//! recursive matcher (per-group graph walk, `min_by` probe selection,
//! per-candidate neighbor scans, fresh allocations everywhere) vs the
//! precompiled [`mwsj_local::JoinKernel`] the distributed reducers run
//! (static per-depth probe/verify lists, SoA rectangle storage with a
//! linear-scan fast path, iterative stack over a reusable scratch arena).
//!
//! Every workload runs both implementations on identical inputs and
//! asserts the *normalized outputs are identical* before any timing is
//! reported — a result mismatch fails the bench (and the CI perf-smoke
//! step that runs it). Timings land in `BENCH_local.json`.
//!
//! The `reducer_groups` workload is the production shape: many small
//! per-cell groups through one compiled kernel, the case the reusable
//! scratch and one-time plan compilation are designed for.

use std::time::{Duration, Instant};

use mwsj_bench::BenchLog;
use mwsj_datagen::SyntheticConfig;
use mwsj_local::{multiway, JoinKernel, LocalRect};
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
    Timed { best, tuples }
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
    println!("workload          | naive ms | kernel ms | speedup | tuples");
    println!("------------------+----------+-----------+---------+-------");

    for w in workloads() {
        // Correctness first: identical normalized outputs, once.
        let expected =
            multiway::normalized(multiway::multiway_join_ids_naive(&w.query, &w.relations));
        let got = multiway::normalized(multiway::multiway_join_ids(&w.query, &w.relations));
        assert_eq!(
            expected, got,
            "{}: kernel deviates from naive matcher",
            w.name
        );

        let naive = best_of(|| multiway::multiway_join_ids_naive(&w.query, &w.relations).len());
        let kernel_handle = JoinKernel::new(&w.query);
        let kernel = best_of(|| {
            let mut n = 0;
            kernel_handle.execute(&w.relations, |_| n += 1);
            n
        });
        assert_eq!(naive.tuples, kernel.tuples, "{}", w.name);
        report(&mut log, w.name, &naive, &kernel);
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
    for g in &groups {
        let expected = multiway::normalized(multiway::multiway_join_ids_naive(&q, g));
        assert_eq!(
            expected,
            multiway::normalized(multiway::multiway_join_ids(&q, g)),
            "reducer_groups: kernel deviates from naive matcher"
        );
    }
    let naive = best_of(|| {
        groups
            .iter()
            .map(|g| multiway::multiway_join_ids_naive(&q, g).len())
            .sum()
    });
    let kernel_handle = JoinKernel::new(&q);
    let kernel = best_of(|| {
        let mut n = 0;
        for g in &groups {
            kernel_handle.execute(g, |_| n += 1);
        }
        n
    });
    assert_eq!(naive.tuples, kernel.tuples, "reducer_groups");
    report(&mut log, "reducer_groups_64x100_3chain", &naive, &kernel);

    log.write().expect("write BENCH_local.json");
}

fn report(log: &mut BenchLog, name: &str, naive: &Timed, kernel: &Timed) {
    println!(
        "{:<17} | {:>8.3} | {:>9.3} | {:>6.2}x | {}",
        name,
        ms(naive.best),
        ms(kernel.best),
        naive.best.as_secs_f64() / kernel.best.as_secs_f64().max(1e-9),
        kernel.tuples
    );
    for (im, t) in [("naive", naive), ("kernel", kernel)] {
        log.push_record(format!(
            "{{\"workload\":{name:?},\"impl\":{im:?},\"best_ms\":{ms:.3},\"reps\":{REPS},\"tuples\":{tuples}}}",
            name = name,
            im = im,
            ms = ms(t.best),
            tuples = t.tuples
        ));
    }
}
