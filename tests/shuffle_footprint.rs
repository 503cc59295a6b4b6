//! What a shuffled pair costs the heap. A shuffle job's map emits, for
//! each pair, the index of the input record it routes, and the reducer
//! reads the record behind the index from the same input: a buffered pair
//! is a key and a reference, charged the record's encoded bytes in the
//! job's counters but holding only the index. So a run's live-heap peak,
//! spread over the pairs its jobs shuffled, stays near the few bytes a
//! pair holds, not the 48 B of a `(u32, TaggedRect)` copy.
//!
//! The workspace's counting allocator measures each run on the test's
//! thread. The clusters run at one slot, so every task runs on that thread
//! and the figures repeat exactly.

use mwsj_core::mapreduce::EngineConfig;
use mwsj_core::partition::Grid;
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, Cluster, ClusterConfig, JoinOutput, JoinRun, StoredRun};
use mwsj_datagen::SyntheticConfig;
use mwsj_geom::Rect;
use mwsj_heapcount::{measure, Counting, Heap};
use mwsj_query::Query;

#[global_allocator]
static HEAP: Counting = Counting;

/// A one-slot cluster over `[0, extent]²` on an 8×8 grid.
fn cluster(extent: f64) -> Cluster {
    let config = ClusterConfig::for_space((0.0, extent), (0.0, extent), 8)
        .with_engine(EngineConfig::default().with_slots(1));
    Cluster::new(config)
}

const SPACE: f64 = 100_000.0;

/// `map_input_footprint`'s workload: a chain over 2 400, 2 400 and 400
/// records with sides up to 2 000, dense enough to join.
fn workload() -> (Query, Vec<Vec<Rect>>) {
    let query = Query::parse("A ov B and B ov C").unwrap();
    let relations = [(2_400, 1), (2_400, 2), (400, 3)]
        .map(|(n, seed)| {
            SyntheticConfig::paper_default(n, seed)
                .with_max_sides(2_000.0, 2_000.0)
                .generate()
        })
        .into();
    (query, relations)
}

fn stores(grid: &Grid, relations: &[Vec<Rect>]) -> Vec<StoredDataset> {
    let builder = StoreBuilder::new(grid);
    relations
        .iter()
        .map(|rel| StoredDataset::from_bytes(&builder.build(rel).unwrap()).unwrap())
        .collect()
}

/// The pairs every job of the run shuffled.
fn pairs(out: &JoinOutput) -> u64 {
    out.report.jobs.iter().map(|j| j.map_output_records).sum()
}

/// Every shuffle algorithm over both kinds of binding, counting: the
/// run's live-heap peak per shuffled pair. The one-round algorithms and
/// C-Rep's two rounds buffer a key and an index per pair; the cascade's
/// pairs carry their charge beside the index, and its intermediate result
/// is a tuple per row.
#[test]
fn a_buffered_pair_is_a_reference() {
    let cluster = cluster(SPACE);
    let (query, relations) = workload();
    let memory: Vec<&[Rect]> = relations.iter().map(Vec::as_slice).collect();
    let stores = stores(cluster.grid(), &relations);
    let stored: Vec<&StoredDataset> = stores.iter().collect();

    let mut over = Vec::new();
    for algorithm in Algorithm::ALL {
        let bound = match algorithm {
            Algorithm::TwoWayCascade => 80.0,
            _ => 24.0,
        };
        for binding in ["memory", "stored"] {
            let (out, Heap { peak, .. }) = measure(|| match binding {
                "memory" => cluster.submit(
                    &JoinRun::new(&query, &memory)
                        .algorithm(algorithm)
                        .counting(),
                ),
                _ => cluster.submit_stored(
                    &StoredRun::new(&query, &stored)
                        .algorithm(algorithm)
                        .counting(),
                ),
            });
            let out = out.unwrap();
            assert!(out.tuple_count > 0, "{algorithm} over {binding}");
            let per_pair = peak as f64 / pairs(&out) as f64;
            if per_pair >= bound {
                over.push(format!(
                    "{algorithm} over {binding}: {peak} B for {} pairs, {per_pair:.1} B a pair \
                     (bound {bound})",
                    pairs(&out)
                ));
            }
        }
    }
    assert!(
        over.is_empty(),
        "live-heap peaks above a reference per pair:\n{}",
        over.join("\n")
    );
}

/// The heap requests and the requested-heap peak, in bytes, of a counting
/// C-Rep-L Q2 over the benchmark's seed-1 relations (`q2_shuffle`'s op)
/// when its count-only reducers counted on the join tree.
const REQUESTS_BOUND: usize = 15_455;
const PEAK_BOUND: usize = 1_066_086;

/// The benchmark's space.
const EXTENT: f64 = 10_000.0;

/// `q2_shuffle`'s op on one slot: its requests (allocations and
/// reallocations) and the most bytes live at once beyond those live
/// before it, over the benchmark's first draw at its seed 1 —
/// paper-default relations of 20 000 rectangles, relation seeds 10 000
/// to 10 002, over its 10 000² space on an 8×8 grid. The run after a
/// first one is measured, so scratch a worker keeps is counted only where
/// a run allocates it anew.
#[test]
fn the_benchmark_shuffle_op_stays_within_its_heap() {
    let cluster = cluster(EXTENT);
    let relations: Vec<Vec<Rect>> = (0..3)
        .map(|i| {
            let mut cfg = SyntheticConfig::paper_default(20_000, 10_000 + i);
            cfg.x_range = (0.0, EXTENT);
            cfg.y_range = (0.0, EXTENT);
            cfg.generate()
        })
        .collect();
    let rels: Vec<&[Rect]> = relations.iter().map(Vec::as_slice).collect();
    let query = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let run = JoinRun::new(&query, &rels)
        .algorithm(Algorithm::ControlledReplicateLimit)
        .counting();
    let first = cluster.submit(&run).unwrap().tuple_count;

    let (tuples, Heap { requests, peak, .. }) =
        measure(|| cluster.submit(&run).unwrap().tuple_count);

    assert_eq!((first, tuples), (93_945, 93_945));
    assert!(
        requests <= REQUESTS_BOUND,
        "{requests} heap requests, bound {REQUESTS_BOUND}"
    );
    assert!(peak <= PEAK_BOUND, "peak {peak} B, bound {PEAK_BOUND} B");
}
