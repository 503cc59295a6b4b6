//! What a parsed query reply costs the heap. A counting global allocator
//! sees every request this test binary makes, so the binary holds this
//! one test and measures only across the `parse` call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use mwsj_mapreduce::json::{self, Json};

/// `System`, counting calls and live requested bytes.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn granted(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
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
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            granted(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: usize = 20_000;

/// A reply shaped as the server renders it: `ROWS` arity-3 tuples.
fn reply() -> String {
    let mut text = format!(
        "{{\"ok\":true,\"cached\":false,\"algorithm\":\"map-side\",\"tuple_count\":{ROWS},\"tuples\":["
    );
    for r in 0..ROWS {
        let sep = if r == 0 { "" } else { "," };
        write!(text, "{sep}[{r},{},{}]", (r * 7) % ROWS, (r * 13) % ROWS).unwrap();
    }
    text.push_str("],\"counters\":[],\"wall_ms\":41.250,\"fingerprint\":\"00000000000000ab\"}");
    text
}

#[test]
fn a_reply_costs_one_allocation_per_row_and_no_growth_slack() {
    let text = reply();
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    CALLS.store(0, Relaxed);
    let doc = json::parse(&text).expect("the reply parses");
    let calls = CALLS.load(Relaxed);
    let peak = PEAK.load(Relaxed) - base;

    let rows = doc.get("tuples").and_then(Json::as_arr).expect("tuples");
    assert_eq!(rows.len(), ROWS);
    assert_eq!(rows[ROWS - 1].as_arr().map(<[Json]>::len), Some(3));

    // (a) A row is one slice; the stacks' growth, the keys, the short
    // strings and the containers around the rows are a constant.
    assert!(
        (ROWS..=ROWS + 64).contains(&calls),
        "{calls} allocations for {ROWS} rows"
    );
    // (b) A row keeps a 24-B value in the tuple array and a 3 × 24-B
    // slice of its own. While the rows are parsed their values sit on a
    // doubling stack, whose slack is the one overhead allowed beyond a
    // small constant.
    let slack = (ROWS.next_power_of_two() - ROWS) * std::mem::size_of::<Json>();
    let bound = ROWS * 96 + slack + 4096;
    assert!(
        peak <= bound,
        "peak {peak} B of live requests while parsing, bound {bound} B"
    );
}
