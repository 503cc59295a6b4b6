//! Micro-benchmarks for the STR R-tree substrate: bulk load and window
//! queries vs a linear scan.

use criterion::{criterion_group, criterion_main, Criterion};
use mwsj_datagen::SyntheticConfig;
use mwsj_geom::Rect;
use mwsj_rtree::RTree;
use std::hint::black_box;

fn bench_rtree(c: &mut Criterion) {
    let data: Vec<(Rect, u32)> = SyntheticConfig::paper_default(20_000, 11)
        .generate()
        .into_iter()
        .enumerate()
        .map(|(i, r)| (r, i as u32))
        .collect();
    let tree = RTree::bulk_load(data.clone());
    let probes = SyntheticConfig::paper_default(200, 13)
        .with_max_sides(2_000.0, 2_000.0)
        .generate();

    let mut group = c.benchmark_group("rtree");
    group.sample_size(20);
    group.bench_function("bulk_load_20k", |b| {
        b.iter(|| RTree::bulk_load(black_box(data.clone())));
    });
    group.bench_function("window_query_200", |b| {
        let mut stack = Vec::new();
        b.iter(|| {
            let mut hits = 0usize;
            for p in &probes {
                tree.query_within_scratch(black_box(p), 0.0, &mut stack, |_, _| hits += 1);
            }
            black_box(hits)
        });
    });
    group.bench_function("window_scan_200_baseline", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &probes {
                hits += data.iter().filter(|(r, _)| r.overlaps(p)).count();
            }
            black_box(hits)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_rtree);
criterion_main!(benches);
