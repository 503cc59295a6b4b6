//! What an opened store costs the heap, measured across each open by the
//! workspace's counting allocator, which counts only the requests of the
//! thread that opens.

use std::mem::size_of;

use mwsj_geom::Rect;
use mwsj_heapcount::{measure, Counting, Heap};
use mwsj_partition::Grid;
use mwsj_store::{StoreBuilder, StoredDataset};

#[global_allocator]
static HEAP: Counting = Counting;

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

#[test]
fn an_opened_store_holds_its_records_and_no_growth_slack() {
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
            let (store, heap) = measure(|| open().unwrap());
            let (held, peak) = (heap.live, heap.peak);
            assert_eq!(store.record_count(), n as u64);
            drop(store);
            assert!(
                held <= held_bound as isize,
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
        let (opened, Heap { peak, .. }) = measure(|| match name {
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
