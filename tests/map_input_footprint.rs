//! What a shuffle algorithm's map input costs the heap. Every shuffle job
//! reads the bound relations where they live — an in-memory slice or an
//! opened store — and maps over one `u32` index per record, as a Hadoop
//! record reader reads its split; the cascade borrows its intermediate
//! result the same way. So no allocation a run makes comes near a tagged
//! copy of its input, `size_of::<TaggedRect>()` bytes a record.
//!
//! The workspace's counting allocator measures each run on the test's
//! thread. The cluster runs at one slot, so every task runs on that thread
//! and the figures repeat exactly.

use mwsj_core::mapreduce::{CancelToken, EngineConfig};
use mwsj_core::partition::Grid;
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, Cluster, ClusterConfig, JoinRun, StoredRun, TaggedRect};
use mwsj_datagen::SyntheticConfig;
use mwsj_geom::Rect;
use mwsj_heapcount::{measure, Counting, Heap};
use mwsj_query::Query;

#[global_allocator]
static HEAP: Counting = Counting;

const SPACE: f64 = 100_000.0;

fn cluster() -> Cluster {
    let config = ClusterConfig::for_space((0.0, SPACE), (0.0, SPACE), 8)
        .with_engine(EngineConfig::default().with_slots(1));
    Cluster::new(config)
}

/// A chain over relations of 2 400, 2 400 and 400 records, dense enough
/// to join: the cascade's first stage joins the two large ones, so its
/// input alone is most of the records.
fn workload(scale: usize) -> (Query, Vec<Vec<Rect>>) {
    let query = Query::parse("A ov B and B ov C").unwrap();
    let relations = [(2_400, 1), (2_400, 2), (400, 3)]
        .map(|(n, seed)| {
            SyntheticConfig::paper_default(n * scale, seed)
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

/// Every shuffle algorithm over both kinds of binding: the largest
/// allocation stays below a tagged copy of the input — over a whole run,
/// and over what a run allocates before its first map task (a run whose
/// token is cancelled up front, which its first job refuses to start).
#[test]
fn no_shuffle_algorithm_copies_its_input() {
    let cluster = cluster();
    let (query, relations) = workload(1);
    let records: usize = relations.iter().map(Vec::len).sum();
    let copy = std::mem::size_of::<TaggedRect>() * records;
    let memory: Vec<&[Rect]> = relations.iter().map(Vec::as_slice).collect();
    let stores = stores(cluster.grid(), &relations);
    let stored: Vec<&StoredDataset> = stores.iter().collect();
    let cancelled = CancelToken::new();
    cancelled.cancel();

    let mut copies = Vec::new();
    for algorithm in Algorithm::ALL {
        for binding in ["memory", "stored"] {
            let run = |cancel: &CancelToken| match binding {
                "memory" => cluster.submit(
                    &JoinRun::new(&query, &memory)
                        .algorithm(algorithm)
                        .cancel(cancel.clone()),
                ),
                _ => cluster.submit_stored(
                    &StoredRun::new(&query, &stored)
                        .algorithm(algorithm)
                        .cancel(cancel.clone()),
                ),
            };
            let (out, before_map) = measure(|| run(&cancelled));
            let before_map = before_map.largest;
            assert!(out.is_err(), "{algorithm} over {binding} ran cancelled");
            if before_map >= copy {
                copies.push(format!(
                    "{algorithm} over {binding}: {before_map} B before the map"
                ));
            }

            let (out, Heap { largest, .. }) = measure(|| run(&CancelToken::new()));
            assert!(out.unwrap().tuple_count > 0, "{algorithm} over {binding}");
            if largest >= copy {
                copies.push(format!(
                    "{algorithm} over {binding}: {largest} B in the run"
                ));
            }
        }
    }
    assert!(
        copies.is_empty(),
        "allocations reaching the {copy} B of a tagged copy of {records} records:\n{}",
        copies.join("\n")
    );
}

/// Heap requests of a counting `algorithm` run over the workload at
/// `scale`, and the records it read.
fn counting_run_requests(cluster: &Cluster, algorithm: Algorithm, scale: usize) -> (usize, usize) {
    let (query, relations) = workload(scale);
    let memory: Vec<&[Rect]> = relations.iter().map(Vec::as_slice).collect();
    let run = JoinRun::new(&query, &memory)
        .algorithm(algorithm)
        .counting();
    let records: usize = relations.iter().map(Vec::len).sum();
    let (_, heap) = measure(|| cluster.submit(&run).unwrap());
    (heap.requests, records)
}

/// Doubling the input grows buffers and reducer groups, by fewer than one
/// allocation per two added records; an allocation per mapped record alone
/// would add one for each.
fn assert_nothing_per_record(cluster: &Cluster, algorithm: Algorithm) {
    let (small, small_records) = counting_run_requests(cluster, algorithm, 1);
    let (large, large_records) = counting_run_requests(cluster, algorithm, 2);
    let added = large.saturating_sub(small);
    assert!(
        added < (large_records - small_records) / 2,
        "{algorithm}: {small_records} → {large_records} records took {small} → {large} allocations"
    );
}

/// The hypercube map emits each record to its share of cells without a
/// coordinate vector per record.
#[test]
fn hypercube_map_allocates_nothing_per_record() {
    assert_nothing_per_record(&cluster(), Algorithm::Hypercube);
}

/// All-Rep's map and both rounds of C-Rep and C-Rep-L (split, then
/// replicate the marked) walk each record's cells off its index span
/// without collecting them, and their count-only reducers count on the
/// join tree in per-thread scratch.
#[test]
fn replicating_maps_allocate_nothing_per_record() {
    let cluster = cluster();
    for algorithm in [
        Algorithm::AllReplicate,
        Algorithm::ControlledReplicate,
        Algorithm::ControlledReplicateLimit,
    ] {
        assert_nothing_per_record(&cluster, algorithm);
    }
}
