//! Stored map-side join vs the shuffle algorithms — the Table 2 nI=20000
//! row (Q2, `R1 Ov R2 and R2 Ov R3`) with every relation ingested into an
//! on-disk `mwsj-store` dataset.
//!
//! Measures three things into `BENCH_store.json`:
//!
//! * **ingest** — partitioning + STR-packing + writing each relation,
//!   reported separately (it is paid once, not per query);
//! * the **shuffle algorithms** from in-memory inputs, as Table 2 runs
//!   them;
//! * the **stored map-side join end-to-end**: opening the three stores
//!   cold from disk *plus* the shuffle-free join, which must beat the
//!   best shuffle algorithm's wall (asserted; the ratio is recorded —
//!   both sides run the same swept pair lists, so what the store saves is
//!   the shuffle, which costs about as much as the join).

use std::time::{Duration, Instant};

use mwsj_bench::{
    bench_reps, measure, paper_cluster, scale, scaled_extent, scaled_n, BenchLog, Measured,
};
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, Cluster, StoredRun};
use mwsj_datagen::SyntheticConfig;
use mwsj_query::Query;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One cold end-to-end stored run: open every store from disk, then join.
fn stored_run(
    cluster: &Cluster,
    query: &Query,
    paths: &[std::path::PathBuf],
) -> (Duration, Duration, Measured) {
    let t_open = Instant::now();
    let stores: Vec<StoredDataset> = paths
        .iter()
        .map(|p| StoredDataset::open(p).expect("open store"))
        .collect();
    let open = t_open.elapsed();
    let refs: Vec<&StoredDataset> = stores.iter().collect();
    let t_join = Instant::now();
    let output = cluster
        .submit_stored(
            &StoredRun::new(query, &refs)
                .algorithm(Algorithm::MapSide)
                .counting()
                .open_wall(open),
        )
        .unwrap_or_else(|e| panic!("{e}"));
    let join = t_join.elapsed();
    (
        open,
        join,
        Measured {
            wall: open + join,
            output,
        },
    )
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() {
    let extent = scaled_extent(100_000.0);
    let cluster = paper_cluster(extent);
    let query = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let n = scaled_n(2_000_000); // the Table 2 nI=20000 row at s=0.01
    let label = format!("nI={n}");

    let gen = |seed: u64| {
        let mut cfg = SyntheticConfig::paper_default(n, seed);
        cfg.x_range = (0.0, extent);
        cfg.y_range = (0.0, extent);
        cfg.generate()
    };
    let (r1, r2, r3) = (gen(1001), gen(2001), gen(3001));
    let rels: [&[_]; 3] = [&r1, &r2, &r3];

    let mut log = BenchLog::new("store");

    // Ingest each relation once, reporting the cost separately from the
    // per-query numbers it amortizes over.
    let dir = std::env::temp_dir().join(format!("mwsj-bench-store-{n}"));
    std::fs::create_dir_all(&dir).expect("bench store dir");
    let builder = StoreBuilder::new(cluster.grid());
    let mut paths = Vec::new();
    for (name, rel) in [("R1", &r1), ("R2", &r2), ("R3", &r3)] {
        let path = dir.join(format!("{name}.store"));
        let t0 = Instant::now();
        builder.write(rel, &path).expect("ingest");
        let wall = t0.elapsed();
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        eprintln!(
            "ingest    : {name} ({} records) -> {} bytes in {wall:.2?}",
            rel.len(),
            bytes
        );
        log.push_record(format!(
            "{{\"phase\":\"ingest\",\"relation\":\"{name}\",\"records\":{},\"bytes\":{bytes},\"wall_ms\":{:.3}}}",
            rel.len(),
            ms(wall),
        ));
        paths.push(path);
    }

    // The stored plan must pick map-side on its own under `auto`.
    {
        let stores: Vec<StoredDataset> = paths
            .iter()
            .map(|p| StoredDataset::open(p).expect("open store"))
            .collect();
        let refs: Vec<&StoredDataset> = stores.iter().collect();
        let plan = cluster.plan_stored(&query, &refs);
        assert_eq!(
            plan.algorithm,
            Algorithm::MapSide,
            "auto must pick map-side for stored inputs: {}",
            plan.to_json()
        );
    }

    // The shuffle field, exactly as Table 2 runs it.
    let shuffle: Vec<(Algorithm, Measured)> = [
        Algorithm::TwoWayCascade,
        Algorithm::AllReplicate,
        Algorithm::ControlledReplicate,
        Algorithm::ControlledReplicateLimit,
    ]
    .into_iter()
    .map(|a| (a, measure(&cluster, &query, &rels, a)))
    .collect();
    let (best_algo, best) = shuffle
        .iter()
        .min_by_key(|(_, m)| m.wall)
        .map(|(a, m)| (*a, m.wall))
        .expect("shuffle runs");
    for (a, m) in &shuffle {
        eprintln!("shuffle   : {} {:.2?}", a.name(), m.wall);
        log.record(&label, *a, m);
    }

    // Stored map-side, cold each rep: open from disk + join.
    let (open, join, map_side) = (0..bench_reps())
        .map(|_| stored_run(&cluster, &query, &paths))
        .min_by_key(|(_, _, m)| m.wall)
        .expect("at least one rep");
    eprintln!(
        "map-side  : open {open:.2?} + join {join:.2?} = {:.2?} \
         (best shuffle: {} {best:.2?}, {:.1}x)",
        map_side.wall,
        best_algo.name(),
        best.as_secs_f64() / map_side.wall.as_secs_f64()
    );
    log.push_record(format!(
        concat!(
            "{{\"row\":\"{label}\",\"algorithm\":\"Map-Side\",\"run\":true,",
            "\"open_ms\":{open:.3},\"join_ms\":{join:.3},\"wall_ms\":{wall:.3},",
            "\"tuples\":{tuples},",
            "\"best_shuffle\":\"{best_name}\",\"best_shuffle_wall_ms\":{best:.3},",
            "\"speedup_vs_best_shuffle\":{speedup:.3}}}"
        ),
        label = label,
        open = ms(open),
        join = ms(join),
        wall = ms(map_side.wall),
        tuples = map_side.output.tuple_count,
        best_name = best_algo.name(),
        best = ms(best),
        speedup = best.as_secs_f64() / map_side.wall.as_secs_f64(),
    ));

    // Same logical result as every shuffle algorithm...
    for (a, m) in &shuffle {
        assert_eq!(
            m.output.tuple_count,
            map_side.output.tuple_count,
            "map-side disagrees with {} on {label}",
            a.name()
        );
    }
    // ...and faster end-to-end, ingest amortized away.
    assert!(
        map_side.wall < best,
        "stored map-side (open + join = {:.2?}) must beat the best shuffle wall \
         ({} at {best:.2?})",
        map_side.wall,
        best_algo.name(),
    );

    println!(
        "{label} | tuples {} | map-side {:.3} ms (open {:.3} + join {:.3}) | \
         best shuffle {} {:.3} ms | speedup {:.1}x | scale {}",
        map_side.output.tuple_count,
        ms(map_side.wall),
        ms(open),
        ms(join),
        best_algo.name(),
        ms(best),
        best.as_secs_f64() / map_side.wall.as_secs_f64(),
        scale(),
    );

    std::fs::remove_dir_all(&dir).ok();
    log.write().expect("writing BENCH_store.json");
}
