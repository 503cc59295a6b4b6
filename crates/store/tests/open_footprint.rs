//! What an opened store costs the heap. A counting global allocator sees
//! every request this test binary makes, so its tests take turns
//! (`SERIAL`) and measure only across each open, counting only the
//! requests of the thread that opens.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

use mwsj_geom::Rect;
use mwsj_partition::Grid;
use mwsj_store::{StoreBuilder, StoredDataset};

/// `System`, counting live and peak requested bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Held by each test for its whole run, so no other test measures while
/// it measures.
static SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    /// Set on the thread inside [`measure`]. The harness starts and ends
    /// the other test's thread whenever it likes, and that thread's
    /// requests landed inside a measured open (7.7 KB of them at the
    /// one-record open, about one run in ten).
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn measuring() -> bool {
    MEASURING.try_with(Cell::get).unwrap_or(false)
}

fn granted(size: usize) {
    if measuring() {
        let live = LIVE.fetch_add(size, Relaxed) + size;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn released(size: usize) {
    if measuring() {
        LIVE.fetch_sub(size, Relaxed);
    }
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
        released(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            released(layout.size());
            granted(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `n` small rectangles spread over the grid by a fixed LCG.
fn rects(n: usize) -> Vec<Rect> {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| Rect::new(next() * 990.0, 10.0 + next() * 990.0, 10.0, 10.0))
        .collect()
}

/// Live bytes still held after `open` returns and the peak during it,
/// both relative to the live bytes before it.
fn measure<T>(open: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    MEASURING.set(true);
    let opened = open();
    MEASURING.set(false);
    let held = LIVE.load(Relaxed) - base;
    let peak = PEAK.load(Relaxed) - base;
    (opened, held, peak)
}

#[test]
fn an_opened_store_holds_its_records_and_no_growth_slack() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let grid = Grid::square((0.0, 1000.0), (0.0, 1000.0), 8);
    let cells = grid.num_cells() as usize;
    let meta_words = 11 + 7 * cells;
    let path =
        std::env::temp_dir().join(format!("mwsj-open-footprint-{}.store", std::process::id()));
    for n in [0, 1, 20_000, 32_769] {
        let bytes = StoreBuilder::new(&grid).build(&rects(n)).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        // What the dataset keeps: one `Rect` and one `u32` id a record,
        // and a cell table; no capacity beyond the count META declares.
        let held_bound = n * (size_of::<Rect>() + 4) + cells * 64 + 1024;
        // While it opens: what it keeps, the read buffer (64 KiB, or the
        // file when smaller), the id-uniqueness scan's byte a record and
        // the decoded META words. Never the file: `open` streams it, and
        // the slice openers read the caller's bytes in place.
        let buffer = bytes.len().min(64 * 1024);
        let peak_bound = held_bound + buffer + n + 8 * meta_words;
        for name in ["open", "from_bytes", "from_bytes_scoped"] {
            let open = || match name {
                "open" => StoredDataset::open(&path),
                "from_bytes" => StoredDataset::from_bytes(&bytes),
                _ => StoredDataset::from_bytes_scoped(&bytes, 0..cells as u32 / 2),
            };
            let (store, held, peak) = measure(|| open().unwrap());
            assert_eq!(store.record_count(), n as u64);
            drop(store);
            assert!(
                held <= held_bound,
                "{name}, n = {n}: holds {held} B, bound {held_bound} B"
            );
            assert!(
                peak <= peak_bound,
                "{name}, n = {n}: peak {peak} B while opening, bound {peak_bound} B"
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// `frame` with the store's frame header: its length and its word-wise
/// checksum (pinned by `mwsj-store`'s `frame_checksum_is_pinned`).
fn framed(section: &[u64]) -> Vec<u8> {
    let mut sum = 0x243F_6A88_85A3_08D3_u64;
    for w in std::iter::once(section.len() as u64).chain(section.iter().copied()) {
        let h = (sum ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        sum = h ^ (h >> 32);
    }
    [section.len() as u64, sum]
        .iter()
        .chain(section)
        .flat_map(|w| w.to_le_bytes())
        .collect()
}

#[test]
fn a_count_the_ids_cannot_hold_reserves_nothing() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A thousand copies of one point: every column of their cell is 0 bits
    // wide, so ENTRIES is empty whatever count the cell claims, and only
    // the IDS frame bounds it.
    let grid = Grid::square((0.0, 1000.0), (0.0, 1000.0), 8);
    let bytes = StoreBuilder::new(&grid)
        .build(&vec![Rect::new(10.0, 990.0, 0.0, 0.0); 1_000])
        .unwrap();
    let words: Vec<u64> = (bytes.as_chunks::<8>().0.iter())
        .map(|w| u64::from_le_bytes(*w))
        .collect();
    let (meta, rest) = words[2..].split_at(words[0] as usize);
    assert_eq!(rest[0], 0, "no ENTRIES words");
    let ids = &rest[4..];
    // META claims 2^24 records, all in the points' cell; later cells start
    // after them.
    let claimed = 1u64 << 24;
    let mut meta = meta.to_vec();
    meta[3] = claimed;
    for row in meta[11..].chunks_exact_mut(7) {
        if row[1] > 0 {
            row[1] = claimed;
        } else if row[0] > 0 {
            row[0] = claimed;
        }
    }
    let forged: Vec<u8> = [framed(&meta), framed(&[]), framed(ids)].concat();
    let path = std::env::temp_dir().join(format!("mwsj-forged-count-{}.store", std::process::id()));
    std::fs::write(&path, &forged).unwrap();
    for name in ["open", "from_bytes", "from_bytes_scoped"] {
        let (opened, _, peak) = measure(|| match name {
            "open" => StoredDataset::open(&path),
            "from_bytes" => StoredDataset::from_bytes(&forged),
            _ => StoredDataset::from_bytes_scoped(&forged, 0..1),
        });
        let msg = opened.unwrap_err().to_string();
        assert!(
            msg.contains(&format!("IDS words for {claimed} records")),
            "{name}: {msg}"
        );
        // The read buffer (the file is smaller than 64 KiB), META and the
        // error: nothing sized from the claimed count.
        let bound = forged.len() + 8 * meta.len() + 1024;
        assert!(peak <= bound, "{name}: peak {peak} B, bound {bound} B");
    }
    std::fs::remove_file(&path).unwrap();
}
