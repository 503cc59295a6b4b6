//! What a map-side join costs the heap. The join gathers one group per
//! seed cell and tallies each tuple at its §6.2 cell by comparing it with
//! two bounds of the seed cell; nothing a group allocates is kept per
//! record beside the group itself. A counting global allocator sees every
//! request of this test binary: its one test counts the requests a
//! counting, one-slot join makes over the benchmark's stores, and the
//! most bytes it holds at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use mwsj_core::mapreduce::EngineConfig;
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, Cluster, ClusterConfig, StoredRun};
use mwsj_datagen::SyntheticConfig;
use mwsj_query::Query;

/// `System`, counting requests and tracking the bytes live and their
/// high-water mark.
struct Counting;

static REQUESTS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    REQUESTS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method passes its arguments to `System` unchanged and
// returns what `System` returned; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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

    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let before = REQUESTS.load(Relaxed);
    let tuples = cluster.submit_stored(&run).unwrap().tuple_count;
    let requests = REQUESTS.load(Relaxed) - before;
    let peak = PEAK.load(Relaxed).saturating_sub(base);

    assert_eq!((first, tuples), (93_945, 93_945));
    assert!(
        requests <= REQUESTS_BOUND,
        "{requests} heap requests, bound {REQUESTS_BOUND}"
    );
    assert!(peak <= PEAK_BOUND, "peak {peak} B, bound {PEAK_BOUND} B");
}
