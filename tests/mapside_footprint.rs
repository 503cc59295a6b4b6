//! What a map-side join costs the heap. The join gathers one group per
//! seed cell and tallies each tuple at its §6.2 cell by comparing it with
//! two bounds of the seed cell; nothing a group allocates is kept per
//! record beside the group itself. The test counts, with the workspace's
//! counting allocator, the requests a counting join makes over the
//! benchmark's stores and the most bytes it holds at once. It runs at one
//! slot, so every task runs on the measured thread and the figures repeat
//! exactly.

use mwsj_core::mapreduce::EngineConfig;
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, Cluster, ClusterConfig, StoredRun};
use mwsj_datagen::SyntheticConfig;
use mwsj_heapcount::{measure, Counting, Heap};
use mwsj_query::Query;

#[global_allocator]
static HEAP: Counting = Counting;

/// The heap requests and the requested-heap peak, in bytes, of the join
/// when it placed each tuple by division. Reading each member's home off
/// its position instead, from a home vector allocated for each group,
/// takes it to 2 614 requests and an 84 364-byte peak.
const REQUESTS_BOUND: usize = 1_903;
const PEAK_BOUND: usize = 70_044;

/// The repository benchmark's space, grid and relation size.
const EXTENT: f64 = 10_000.0;
const N: usize = 20_000;

/// The three stores of the benchmark's first draw at its seed 1 (relation
/// seeds 10 000 to 10 002): paper-default relations of 20 000 rectangles
/// over its 10 000² space, on an 8×8 grid.
fn stores(cluster: &Cluster) -> Vec<StoredDataset> {
    let builder = StoreBuilder::new(cluster.grid());
    (0..3)
        .map(|i| {
            let mut cfg = SyntheticConfig::paper_default(N, 10_000 + i);
            cfg.x_range = (0.0, EXTENT);
            cfg.y_range = (0.0, EXTENT);
            let bytes = builder.build(&cfg.generate()).unwrap();
            StoredDataset::from_bytes(&bytes).unwrap()
        })
        .collect()
}

/// A counting Q2 over the benchmark's stores on one slot: its requests
/// (allocations and reallocations) and the most bytes live at once beyond
/// those live before it. The run after a first one is measured, so
/// scratch a worker keeps is counted only where a run allocates it anew.
#[test]
fn a_map_side_group_allocates_nothing_per_record_beside_itself() {
    let config = ClusterConfig::for_space((0.0, EXTENT), (0.0, EXTENT), 8)
        .with_engine(EngineConfig::default().with_slots(1));
    let cluster = Cluster::new(config);
    let stores = stores(&cluster);
    let refs: Vec<&StoredDataset> = stores.iter().collect();
    let query = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let run = StoredRun::new(&query, &refs)
        .algorithm(Algorithm::MapSide)
        .counting();
    let first = cluster.submit_stored(&run).unwrap().tuple_count;

    let (tuples, Heap { requests, peak, .. }) =
        measure(|| cluster.submit_stored(&run).unwrap().tuple_count);

    assert_eq!((first, tuples), (93_945, 93_945));
    assert!(
        requests <= REQUESTS_BOUND,
        "{requests} heap requests, bound {REQUESTS_BOUND}"
    );
    assert!(peak <= PEAK_BOUND, "peak {peak} B, bound {PEAK_BOUND} B");
}
