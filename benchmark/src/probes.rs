//! The per-layer ledger: every layer timed from outside, around its
//! public calls, or read from values the public API already returns
//! (`JoinOutput.report.jobs`, `ReplicationStats`, the `stats` op).
//!
//! The same probes run in the traced run of every workload, on the
//! inputs the workloads use. Timings are medians over at least
//! `MIN_CALLS` calls (`FEW_CALLS` for a whole join, which costs tens
//! to hundreds of milliseconds); counts are exact and repeat bit for
//! bit under one seed.

use std::path::Path;
use std::time::{Duration, Instant};

use mwsj_core::geom::Rect;
use mwsj_core::local::marking::mark_for_replication;
use mwsj_core::local::{JoinKernel, LocalRect};
use mwsj_core::mapreduce::JobMetrics;
use mwsj_core::partition::{CellId, Grid};
use mwsj_core::rtree::{PackedRTree, RTree};
use mwsj_core::shards::{self, GatherSpec};
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, JoinRun, StoredRun};
use mwsj_net::frame;
use mwsj_server::cache::{CacheKey, CachedResult, ResultCache};
use mwsj_server::{json, protocol};

use crate::stats::median;
use crate::workloads::{self, Serve, EXTENT, N};

const MIN_CALLS: usize = 200;
const FEW_CALLS: usize = 5;

/// Metric name → value, in the order measured.
pub type Layers = Vec<(String, f64)>;

/// Calls `f` at least `min_calls` times and until `budget` has passed
/// (never more than 50 × `min_calls`); per-call milliseconds. Each
/// call consumes a fresh input from `prepare`, which is not timed.
fn sample_with<T>(
    min_calls: usize,
    budget: Duration,
    mut prepare: impl FnMut() -> T,
    mut f: impl FnMut(T),
) -> Vec<f64> {
    let start = Instant::now();
    let mut ms = Vec::with_capacity(min_calls);
    while ms.len() < min_calls || (start.elapsed() < budget && ms.len() < 50 * min_calls) {
        let input = prepare();
        let t = Instant::now();
        f(input);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ms
}

fn sample(min_calls: usize, budget: Duration, mut f: impl FnMut()) -> Vec<f64> {
    sample_with(min_calls, budget, || (), |()| f())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs every probe. `budget_s` is spread over the timed loops; the
/// fixed minimum call counts decide when it is too small to matter.
pub fn run(seed: u64, dir: &Path, budget_s: f64) -> Layers {
    let slice = Duration::from_secs_f64(budget_s / 40.0);
    let mut out = Layers::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));

    let cluster = workloads::cluster();
    let query = workloads::q2();
    let rels = workloads::relations(seed);
    let slices: [&[Rect]; 3] = [&rels[0], &rels[1], &rels[2]];

    // datagen, query
    put(
        "datagen.generate_ms",
        median(&sample(MIN_CALLS, slice, || {
            std::hint::black_box(workloads::relation(seed, 0));
        })),
    );
    put(
        "query.parse_us",
        median(&sample(MIN_CALLS, slice, || {
            for _ in 0..100 {
                let q = mwsj_core::query::Query::parse(std::hint::black_box(workloads::Q2));
                std::hint::black_box(q.expect("Q2 parses").canonical());
            }
        })) * 10.0,
    );

    // rtree: build over R2, probe with every rectangle of R1.
    let items: Vec<(Rect, u32)> = rels[1].iter().copied().zip(0u32..).collect();
    put(
        "rtree.build_ms",
        median(&sample_with(
            MIN_CALLS,
            slice,
            || items.clone(),
            |input| {
                std::hint::black_box(RTree::bulk_load(input));
            },
        )),
    );
    let tree = RTree::bulk_load(items);
    let (entry_words, node_words) = mwsj_core::rtree::pack(&tree);
    let packed = PackedRTree::new(&entry_words, &node_words).expect("packed tree");
    let mut stack = Vec::new();
    let mut hits = 0u64;
    let owned_ns = sample(FEW_CALLS, slice, || {
        hits = 0;
        for probe in &rels[0] {
            tree.query_within_scratch(probe, 0.0, &mut stack, |_, _| hits += 1);
        }
    });
    let mut packed_hits = 0u64;
    let packed_ns = sample(FEW_CALLS, slice, || {
        packed_hits = 0;
        for probe in &rels[0] {
            packed.query_within_scratch(probe, 0.0, &mut stack, |_, _| packed_hits += 1);
        }
    });
    assert_eq!(hits, packed_hits, "owned and packed trees disagree");
    put("rtree.probe_ns", median(&owned_ns) * 1e6 / N as f64);
    put("rtree.packed_probe_ns", median(&packed_ns) * 1e6 / N as f64);
    put("rtree.probe_hits", hits as f64);

    // local: one reducer group — what a 3×2 grid's first cell receives,
    // ~3 300 rectangles per relation at the workloads' density.
    let coarse = Grid::new((0.0, EXTENT), (0.0, EXTENT), 3, 2);
    let cell = CellId(0);
    let group: Vec<Vec<LocalRect>> = rels
        .iter()
        .map(|rel| {
            rel.iter()
                .copied()
                .zip(0u32..)
                .filter(|(r, _)| coarse.rect_overlaps_cell(r, cell))
                .collect()
        })
        .collect();
    let kernel = JoinKernel::new(&query);
    let mut tuples = 0u64;
    let kernel_ms = sample(MIN_CALLS, slice, || {
        tuples = 0;
        kernel.execute(&group, |_| tuples += 1);
    });
    put("local.kernel_ms", median(&kernel_ms));
    put("local.kernel_tuples", tuples as f64);
    put(
        "local.marking_ms",
        median(&sample(MIN_CALLS, slice, || {
            std::hint::black_box(mark_for_replication(&query, &coarse, cell, &group));
        })),
    );

    // mapreduce: the phases of one `q2_shuffle` op, from its JobMetrics.
    let crepl = JoinRun::new(&query, &slices)
        .algorithm(Algorithm::ControlledReplicateLimit)
        .counting();
    let mut phases: [Vec<f64>; 6] = Default::default();
    let mut last_jobs: Vec<JobMetrics> = Vec::new();
    sample(4 * FEW_CALLS, 6 * slice, || {
        let output = cluster.submit(&crepl).expect("c-rep-l");
        let sum = |f: fn(&JobMetrics) -> Duration| ms(output.report.jobs.iter().map(f).sum());
        phases[0].push(sum(|j| j.map_wall));
        phases[1].push(sum(|j| j.sort_wall));
        phases[2].push(sum(|j| j.shuffle_wall));
        phases[3].push(sum(|j| j.merge_wall));
        phases[4].push(sum(|j| j.reduce_wall));
        phases[5].push(sum(|j| j.queue_wait));
        last_jobs = output.report.jobs;
    });
    for (name, values) in ["map", "sort", "shuffle", "merge", "reduce", "queue_wait"]
        .iter()
        .zip(&phases)
    {
        put(&format!("mapreduce.{name}_ms"), median(values));
    }
    let total = |f: fn(&JobMetrics) -> u64| last_jobs.iter().map(f).sum::<u64>() as f64;
    put("mapreduce.jobs", last_jobs.len() as f64);
    put("mapreduce.kv_pairs", total(|j| j.map_output_records));
    put("mapreduce.shuffle_bytes", total(|j| j.shuffle_bytes));
    put("mapreduce.spill_runs", total(|j| j.spill_runs));
    put("mapreduce.retries", total(|j| j.retries));

    // core: planner, the five shuffle algorithms, map-side, shards.
    put(
        "core.plan_ms",
        median(&sample(MIN_CALLS, slice, || {
            std::hint::black_box(cluster.plan(&query, &slices));
        })),
    );
    for algorithm in Algorithm::ALL {
        let run = JoinRun::new(&query, &slices)
            .algorithm(algorithm)
            .counting();
        let mut last = None;
        let wall = sample(FEW_CALLS, slice, || {
            last = Some(cluster.submit(&run).expect("shuffle algorithm"));
        });
        let output = last.expect("at least one call");
        put(&format!("core.{algorithm}.wall_ms"), median(&wall));
        put(
            &format!("core.{algorithm}.kv_pairs"),
            output.report.total_intermediate_records() as f64,
        );
        put(
            &format!("core.{algorithm}.rects_after_replication"),
            output.stats.rectangles_after_replication as f64,
        );
        if algorithm == Algorithm::TwoWayCascade {
            put(
                "core.cascade.dfs_bytes",
                (output.report.dfs_read_bytes + output.report.dfs_write_bytes) as f64,
            );
        }
    }

    // store
    let builder = StoreBuilder::new(cluster.grid());
    let path = dir.join("probe.store");
    put(
        "store.ingest_ms",
        median(&sample(4 * FEW_CALLS, slice, || {
            builder.write(&rels[0], &path).expect("ingest");
        })),
    );
    put(
        "store.build_ms",
        median(&sample(4 * FEW_CALLS, slice, || {
            std::hint::black_box(builder.build(&rels[0]).expect("build"));
        })),
    );
    let bytes = std::fs::read(&path).expect("store file");
    put("store.bytes_per_rect", bytes.len() as f64 / N as f64);
    let open_ms = median(&sample(MIN_CALLS, slice, || {
        std::hint::black_box(StoredDataset::open(&path).expect("open"));
    }));
    let validate_ms = median(&sample(MIN_CALLS, slice, || {
        std::hint::black_box(StoredDataset::from_bytes(&bytes).expect("validate"));
    }));
    put("store.open_ms", open_ms);
    put("store.validate_ms", validate_ms);
    put("store.read_ms", open_ms - validate_ms);

    let paths = workloads::ingest(&cluster, &rels, dir);
    let stores: Vec<StoredDataset> = paths
        .iter()
        .map(|p| StoredDataset::open(p).expect("open"))
        .collect();
    let refs: Vec<&StoredDataset> = stores.iter().collect();
    std::hint::black_box(cluster.plan_stored(&query, &refs)); // caches the statistics
    put(
        "core.plan_stored_ms",
        median(&sample(MIN_CALLS, slice, || {
            std::hint::black_box(cluster.plan_stored(&query, &refs));
        })),
    );
    let mapside = StoredRun::new(&query, &refs)
        .algorithm(Algorithm::MapSide)
        .counting();
    let mut mapside_tuples = 0;
    put(
        "core.mapside.join_ms",
        median(&sample(4 * FEW_CALLS, 3 * slice, || {
            mapside_tuples = cluster
                .submit_stored(&mapside)
                .expect("map-side")
                .tuple_count;
        })),
    );
    put("core.mapside.tuples", mapside_tuples as f64);
    // What a `serve_cold` miss adds to the count-only join: the tuples
    // materialized, rendered by the server and parsed by the client.
    let materializing = StoredRun::new(&query, &refs).algorithm(Algorithm::MapSide);
    let mut cold_tuples = Vec::new();
    put(
        "core.mapside.materialize_ms",
        median(&sample(4 * FEW_CALLS, 3 * slice, || {
            cold_tuples = cluster
                .submit_stored(&materializing)
                .expect("map-side")
                .tuples;
        })),
    );
    let mut cold_json = String::new();
    put(
        "server.render_cold_ms",
        median(&sample(4 * FEW_CALLS, slice, || {
            cold_json = protocol::tuples_json(std::hint::black_box(&cold_tuples));
        })),
    );
    put(
        "server.json_parse_cold_ms",
        median(&sample(4 * FEW_CALLS, slice, || {
            std::hint::black_box(json::parse(std::hint::black_box(&cold_json)).expect("json"));
        })),
    );

    let ranges = shards::seed_cell_ranges(cluster.grid().num_cells(), 2);
    let file_bytes: Vec<Vec<u8>> = paths
        .iter()
        .map(|p| std::fs::read(p).expect("store file"))
        .collect();
    let scoped: Vec<Vec<StoredDataset>> = ranges
        .iter()
        .map(|range| {
            file_bytes
                .iter()
                .map(|b| StoredDataset::from_bytes_scoped(b, range.clone()).expect("scoped open"))
                .collect()
        })
        .collect();
    let (mut part_max, mut part_sum, mut gather_ms) = (Vec::new(), Vec::new(), Vec::new());
    sample(4 * FEW_CALLS, 3 * slice, || {
        let mut walls = Vec::new();
        let mut partials = Vec::new();
        for (range, shard_stores) in ranges.iter().zip(&scoped) {
            let refs: Vec<&StoredDataset> = shard_stores.iter().collect();
            let run = StoredRun::new(&query, &refs).counting();
            let t = Instant::now();
            partials.push(
                cluster
                    .submit_stored_partial(&run, range.clone())
                    .expect("shard partial"),
            );
            walls.push(ms(t.elapsed()));
        }
        let spec = GatherSpec {
            record_total: 3 * N as u64,
            count_only: true,
            open_wall: Duration::ZERO,
            join_wall: Duration::ZERO,
            input_fingerprint: shards::combined_fingerprint(&refs),
        };
        let t = Instant::now();
        let gathered = shards::gather(partials, &spec);
        gather_ms.push(ms(t.elapsed()));
        assert_eq!(
            gathered.tuple_count, mapside_tuples,
            "shards disagree with one node"
        );
        part_max.push(walls.iter().copied().fold(0.0, f64::max));
        part_sum.push(walls.iter().sum());
    });
    put("core.shards.partial_max_ms", median(&part_max));
    put("core.shards.partial_sum_ms", median(&part_sum));
    put("core.shards.gather_ms", median(&gather_ms));

    // net: 128 KiB through the frame codec and the line scanner.
    let payload = vec![b'x'; 128 << 10];
    let mb = payload.len() as f64 / 1e6;
    let mut framed = Vec::new();
    let encode = sample(MIN_CALLS, slice, || {
        framed.clear();
        frame::encode_frame(std::hint::black_box(&payload), &mut framed);
    });
    let decode = sample(MIN_CALLS, slice, || {
        for _ in 0..1000 {
            let decoded = frame::decode_frame(std::hint::black_box(&framed), 1 << 20);
            std::hint::black_box(decoded.expect("frame decodes"));
        }
    });
    let mut line = payload.clone();
    line.push(b'\n');
    let take = sample(MIN_CALLS, slice, || {
        std::hint::black_box(frame::take_line(std::hint::black_box(&line)));
    });
    put("net.frame_encode_mb_s", mb / (median(&encode) / 1e3));
    put("net.frame_decode_mb_s", mb / (median(&decode) / 1e6));
    put("net.take_line_mb_s", mb / (median(&take) / 1e3));

    server_probes(seed, slice, &mut put);
    out
}

/// The serving tier's pieces one at a time, against a hot server of
/// this process: what a cache hit is made of.
fn server_probes(seed: u64, slice: Duration, put: &mut impl FnMut(&str, f64)) {
    let mut serve = Serve::hot(seed, &workloads::expected("serve_hot", seed));
    let (line, expected) = serve.pool()[0].clone();
    let mut client = serve.connect();
    let response = client.request(&line).expect("hot request");
    workloads::verify_response(&response, expected).expect("hot response verifies");
    put("server.resp_bytes", response.len() as f64);

    put(
        "server.parse_request_us",
        median(&sample(MIN_CALLS, slice, || {
            std::hint::black_box(protocol::parse_request(std::hint::black_box(&line)).expect("ok"));
        })) * 1e3,
    );
    put(
        "server.json_parse_ms",
        median(&sample(MIN_CALLS, slice, || {
            std::hint::black_box(json::parse(std::hint::black_box(&response)).expect("json"));
        })),
    );
    let doc = json::parse(&response).expect("json");
    let tuples: Vec<Vec<u32>> = doc
        .get("tuples")
        .and_then(json::Json::as_arr)
        .expect("tuples")
        .iter()
        .map(|t| {
            let ids = t.as_arr().expect("tuple");
            ids.iter()
                .map(|id| id.as_f64().expect("id") as u32)
                .collect()
        })
        .collect();
    put(
        "server.render_ms",
        median(&sample(MIN_CALLS, slice, || {
            std::hint::black_box(protocol::tuples_json(std::hint::black_box(&tuples)));
        })),
    );

    let cache = ResultCache::new(16 << 20);
    let key = |i: u64| CacheKey {
        query: workloads::Q2.to_string(),
        fingerprints: vec![i, 2, 3],
        algorithm: "crep-l".to_string(),
        count_only: false,
    };
    let mut inserted = 0;
    let insert_ms = sample_with(
        MIN_CALLS,
        slice,
        || {
            inserted += 1;
            let value = CachedResult {
                tuples: tuples.clone(),
                tuple_count: tuples.len() as u64,
                counters: "[]".to_string(),
                algorithm: "crep-l".to_string(),
            };
            (key(inserted), value)
        },
        |(k, value)| {
            std::hint::black_box(cache.insert(k, value));
        },
    );
    put("server.cache_insert_us", median(&insert_ms) * 1e3);
    let resident = key(inserted);
    put(
        "server.cache_get_us",
        median(&sample(MIN_CALLS, slice, || {
            for _ in 0..100 {
                std::hint::black_box(cache.get(&resident).expect("resident entry"));
            }
        })) * 10.0,
    );

    put(
        "server.stats_rtt_us",
        median(&sample(MIN_CALLS, slice, || {
            std::hint::black_box(client.request("{\"op\":\"stats\"}").expect("stats"));
        })) * 1e3,
    );
    // A hit with everything optional pinned down: no planning, no tuples.
    let thin = line.replacen(
        "{\"op\":\"query\",",
        "{\"op\":\"query\",\"algorithm\":\"crep-l\",\"count_only\":true,",
        1,
    );
    client.request(&thin).expect("thin miss");
    put(
        "server.hit_thin_us",
        median(&sample(MIN_CALLS, slice, || {
            let reply = client.request(&thin).expect("thin hit");
            assert!(reply.contains("\"cached\":true"), "thin request missed");
        })) * 1e3,
    );
    drop(client);
    workloads::Workload::shutdown(&mut serve);
}
