//! What a shuffle algorithm's map input costs the heap. Every shuffle job
//! reads the bound relations where they live — an in-memory slice or an
//! opened store — and maps over one `u32` index per record, as a Hadoop
//! record reader reads its split; the cascade borrows its intermediate
//! result the same way. So no allocation a run makes comes near a tagged
//! copy of its input, `size_of::<TaggedRect>()` bytes a record.
//!
//! A counting global allocator sees every request of this test binary, so
//! each test holds one lock while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

use mwsj_core::mapreduce::CancelToken;
use mwsj_core::partition::Grid;
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, Cluster, ClusterConfig, JoinRun, StoredRun, TaggedRect};
use mwsj_datagen::SyntheticConfig;
use mwsj_geom::Rect;
use mwsj_query::Query;

/// `System`, counting calls and the largest single request.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn granted(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    LARGEST.fetch_max(size, Relaxed);
}

// SAFETY: every method passes its arguments to `System` unchanged and
// returns what `System` returned; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            granted(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            granted(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Serializes the tests: the counters are process-wide.
static MEASURING: Mutex<()> = Mutex::new(());

/// Runs `run` and returns what it returned with the allocator calls it
/// made and the largest single request among them.
fn measure<T>(run: impl FnOnce() -> T) -> (T, usize, usize) {
    CALLS.store(0, Relaxed);
    LARGEST.store(0, Relaxed);
    let out = run();
    (out, CALLS.load(Relaxed), LARGEST.load(Relaxed))
}

const SPACE: f64 = 100_000.0;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::for_space((0.0, SPACE), (0.0, SPACE), 8))
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
    let _lock = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
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
            let (out, _, before_map) = measure(|| run(&cancelled));
            assert!(out.is_err(), "{algorithm} over {binding} ran cancelled");
            if before_map >= copy {
                copies.push(format!(
                    "{algorithm} over {binding}: {before_map} B before the map"
                ));
            }

            let (out, _, largest) = measure(|| run(&CancelToken::new()));
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

/// Allocator calls of a counting `algorithm` run over the workload at
/// `scale`, and the records it read.
fn counting_run_calls(cluster: &Cluster, algorithm: Algorithm, scale: usize) -> (usize, usize) {
    let (query, relations) = workload(scale);
    let memory: Vec<&[Rect]> = relations.iter().map(Vec::as_slice).collect();
    let run = JoinRun::new(&query, &memory)
        .algorithm(algorithm)
        .counting();
    let records: usize = relations.iter().map(Vec::len).sum();
    (measure(|| cluster.submit(&run).unwrap()).1, records)
}

/// Doubling the input grows buffers and reducer groups, by fewer than one
/// allocation per two added records; an allocation per mapped record alone
/// would add one for each.
fn assert_nothing_per_record(cluster: &Cluster, algorithm: Algorithm) {
    let (small, small_records) = counting_run_calls(cluster, algorithm, 1);
    let (large, large_records) = counting_run_calls(cluster, algorithm, 2);
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
    let _lock = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    assert_nothing_per_record(&cluster(), Algorithm::Hypercube);
}

/// All-Rep's map and both rounds of C-Rep and C-Rep-L (split, then
/// replicate the marked) walk each record's cells off its index span
/// without collecting them, and their count-only reducers count on the
/// join tree in per-thread scratch.
#[test]
fn replicating_maps_allocate_nothing_per_record() {
    let _lock = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let cluster = cluster();
    for algorithm in [
        Algorithm::AllReplicate,
        Algorithm::ControlledReplicate,
        Algorithm::ControlledReplicateLimit,
    ] {
        assert_nothing_per_record(&cluster, algorithm);
    }
}
