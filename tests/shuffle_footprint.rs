//! What a shuffled pair costs the heap. A shuffle job's map emits, for
//! each pair, the index of the input record it routes, and the reducer
//! reads the record behind the index from the same input: a buffered pair
//! is a key and a reference, charged the record's encoded bytes in the
//! job's counters but holding only the index. So a run's live-heap peak,
//! spread over the pairs its jobs shuffled, stays near the few bytes a
//! pair holds, not the 48 B of a `(u32, TaggedRect)` copy.
//!
//! A counting global allocator sees every request of this test binary, so
//! each measurement holds one lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, PoisonError};

use mwsj_core::partition::Grid;
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, Cluster, ClusterConfig, JoinOutput, JoinRun, StoredRun};
use mwsj_datagen::SyntheticConfig;
use mwsj_geom::Rect;
use mwsj_query::Query;

/// `System`, tracking the bytes live and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
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

/// Serializes the measurements: the counters are process-wide.
static MEASURING: Mutex<()> = Mutex::new(());

/// Runs `run` and returns what it returned with the most bytes it held
/// live at once beyond those live when it started.
fn peak_of<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let _lock = MEASURING.lock().unwrap_or_else(PoisonError::into_inner);
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = run();
    (out, PEAK.load(Relaxed).saturating_sub(base))
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
    let cluster = Cluster::new(ClusterConfig::for_space((0.0, SPACE), (0.0, SPACE), 8));
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
            let (out, peak) = peak_of(|| match binding {
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
