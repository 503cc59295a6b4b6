//! Persistent cell-partitioned dataset store.
//!
//! `mwsj ingest` pre-partitions a relation by the same uniform grid the
//! cluster joins on and writes each cell as one run of rectangles in
//! ascending `min_x` — the order the reducer kernel sweeps a group in.
//! Opening a stored dataset is one streaming pass: the file is read front
//! to back through a fixed buffer of at most 64 KiB, and each section is
//! checksummed and decoded as its bytes pass, so an open never holds a
//! file-sized image. Afterwards a cell is two borrowed slices and a gather
//! from it is a binary search for its x-reach, which is what makes the
//! shuffle-free map-side join pay: the partitioning cost moves to ingest
//! time.
//!
//! # File layout
//!
//! Everything is little-endian `u64` words. Three sections, each preceded
//! by a `RunFrame`-style frame of two words — `len` (payload words) and a
//! word-wise checksum seeded with `len` (see [`VERSION`]):
//!
//! ```text
//! [frame] META    magic, version, fingerprint, record_count,
//!                 x0, xn, y0, yn (f64 bits), cols, rows, num_cells,
//!                 then per cell: entry_start, entry_count,
//!                                extent min_x, min_y, max_x, max_y (bits)
//! [frame] ENTRIES min_x, min_y, max_x, max_y (bits) per record, cell by
//!                 cell, each cell's run in ascending min_x (ties by id)
//! [frame] IDS     the records' u32 input-order ids in ENTRIES order,
//!                 two per word (low half first), padding zero
//! ```
//!
//! A store of `n` records over `cells` cells is `8 × (6 + 11 + 6·cells +
//! 4n + ⌈n/2⌉)` bytes.
//!
//! The grid ranges are the *constructor* values (via [`Grid::x_range`] /
//! [`Grid::y_range`]), so the grid round-trips bit-exactly. The
//! fingerprint is [`dataset_fingerprint`] of the input rectangles, the one
//! content hash every binding is keyed by.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io::{self, BufRead, BufReader};
use std::ops::Range;
use std::path::Path;

use mwsj_geom::Rect;
use mwsj_mapreduce::Fnv64;
use mwsj_partition::{CellId, Grid};

/// `"MWSJSTOR"` in ASCII, read as a big-endian integer.
pub const MAGIC: u64 = 0x4D57_534A_5354_4F52;

/// Current (and only) format version. VERSION 3 checksums a frame word by
/// word; VERSION 2, the same layout under a byte-wise FNV-64, is refused.
pub const VERSION: u64 = 3;

/// Fixed META words before the per-cell table.
const META_HEADER_WORDS: usize = 11;

/// META words per cell: the entry range plus the cell extent.
const META_CELL_WORDS: usize = 6;

/// `open`'s read buffer, unless the file is smaller: 2 048 records'
/// corners.
const BUFFER_BYTES: usize = 64 * 1024;

/// Bytes of one ENTRIES record, the unit a section is decoded in.
const RECORD_BYTES: usize = 32;

/// The frame checksum's state before its word count is mixed in.
const FRAME_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// The frame checksum's multiplier; odd, so multiplying is a bijection.
const FRAME_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Why a store could not be written or opened.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying file could not be read or written.
    Io(io::Error),
    /// The bytes are not a valid store: truncation, checksum mismatch or a
    /// structural defect found during validation.
    Corrupt(String),
    /// The input cannot be ingested (e.g. a rectangle outside the grid).
    Ingest(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::Ingest(msg) => write!(f, "cannot ingest: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The content fingerprint of a relation: FNV-64 over the record count as
/// a little-endian `u64`, then each rectangle's `x`, `y`, `l` and `b` as
/// the little-endian `u64`s of their IEEE bit patterns, in input order.
/// Floats hash their bits, so `-0.0` and `0.0` fingerprint differently:
/// the fingerprint tracks bytes, not numeric equality. A store carries the
/// fingerprint of the relation it was built from, so the server's
/// result-cache key is the same whether a binding was ingested or built
/// from a source spec.
#[must_use]
pub fn dataset_fingerprint(rects: &[Rect]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(rects.len() as u64);
    for r in rects {
        h.write_u64(r.x().to_bits());
        h.write_u64(r.y().to_bits());
        h.write_u64(r.l().to_bits());
        h.write_u64(r.b().to_bits());
    }
    h.finish()
}

/// A frame's checksum, fed the payload's word count and then each payload
/// word. A word costs one xor, one multiply by an odd constant and one
/// xor-shift, each a bijection of the state, so changing any one word
/// changes the sum.
struct FrameHash(u64);

impl FrameHash {
    fn new(words: usize) -> Self {
        let mut h = Self(FRAME_SEED);
        h.word(words as u64);
        h
    }

    fn word(&mut self, w: u64) {
        let h = (self.0 ^ w).wrapping_mul(FRAME_MUL);
        self.0 = h ^ (h >> 32);
    }
}

fn frame_checksum(section: &[u64]) -> u64 {
    let mut h = FrameHash::new(section.len());
    for &w in section {
        h.word(w);
    }
    h.0
}

fn push_framed(out: &mut Vec<u8>, section: &[u64]) {
    out.extend((section.len() as u64).to_le_bytes());
    out.extend(frame_checksum(section).to_le_bytes());
    out.extend(section.iter().flat_map(|w| w.to_le_bytes()));
}

/// Serializes relations into the store format, cell-partitioned by a grid.
#[derive(Debug, Clone, Copy)]
pub struct StoreBuilder<'a> {
    grid: &'a Grid,
}

impl<'a> StoreBuilder<'a> {
    /// A builder that partitions by `grid`. Every dataset ingested with the
    /// same grid is co-partitioned and therefore joinable map-side.
    #[must_use]
    pub fn new(grid: &'a Grid) -> Self {
        Self { grid }
    }

    /// Builds the serialized store for one relation.
    ///
    /// Each rectangle is homed at exactly one cell (the cell of its start
    /// point) and keeps its input-order index as its id; each cell's run is
    /// sorted by `min_x`, ties by id.
    ///
    /// # Errors
    /// Rejects relations larger than `u32::MAX` records or containing a
    /// rectangle whose start point lies outside the grid extent.
    pub fn build(&self, rects: &[Rect]) -> Result<Vec<u8>, StoreError> {
        if rects.len() > u32::MAX as usize {
            return Err(StoreError::Ingest(format!(
                "{} records exceed the u32 id space",
                rects.len()
            )));
        }
        let extent = self.grid.extent();
        let num_cells = self.grid.num_cells() as usize;
        let mut per_cell: Vec<Vec<(Rect, u32)>> = vec![Vec::new(); num_cells];
        for (i, r) in rects.iter().enumerate() {
            if !extent.contains_rect(r) {
                return Err(StoreError::Ingest(format!(
                    "record {i} lies outside the grid extent"
                )));
            }
            per_cell[self.grid.cell_of(r).0 as usize].push((*r, i as u32));
        }

        let mut meta = Vec::with_capacity(META_HEADER_WORDS + num_cells * META_CELL_WORDS);
        meta.push(MAGIC);
        meta.push(VERSION);
        meta.push(dataset_fingerprint(rects));
        meta.push(rects.len() as u64);
        let (x0, xn) = self.grid.x_range();
        let (y0, yn) = self.grid.y_range();
        meta.extend([x0.to_bits(), xn.to_bits(), y0.to_bits(), yn.to_bits()]);
        meta.push(u64::from(self.grid.cols()));
        meta.push(u64::from(self.grid.rows()));
        meta.push(num_cells as u64);

        let mut entries: Vec<u64> = Vec::with_capacity(rects.len() * 4);
        let mut ids = vec![0u64; rects.len().div_ceil(2)];
        let mut at = 0usize;
        for mut run in per_cell {
            // Pushed in input order, so the stable sort breaks ties by id.
            run.sort_by(|a, b| a.0.min_x().total_cmp(&b.0.min_x()));
            let extent = (run.iter().map(|(r, _)| *r))
                .reduce(|a, b| a.union(&b))
                .unwrap_or(Rect::new(0.0, 0.0, 0.0, 0.0));
            meta.extend([at as u64, run.len() as u64]);
            meta.extend(extent.bounds().map(f64::to_bits));
            for (r, id) in run {
                entries.extend(r.bounds().map(f64::to_bits));
                ids[at / 2] |= u64::from(id) << (32 * (at % 2));
                at += 1;
            }
        }

        let mut bytes = Vec::with_capacity(8 * (6 + meta.len() + entries.len() + ids.len()));
        for section in [&meta, &entries, &ids] {
            push_framed(&mut bytes, section);
        }
        Ok(bytes)
    }

    /// Builds and writes the store for one relation to `path`.
    ///
    /// # Errors
    /// Propagates [`StoreBuilder::build`] failures and filesystem errors.
    pub fn write(&self, rects: &[Rect], path: &Path) -> Result<(), StoreError> {
        fs::write(path, self.build(rects)?)?;
        Ok(())
    }
}

/// One cell: its run's range in the record arrays, and its extent.
#[derive(Debug)]
struct CellMeta {
    entries: Range<usize>,
    extent: Rect,
}

/// An opened, fully validated stored dataset.
///
/// All structural validation happens once in [`StoredDataset::from_bytes`];
/// afterwards every accessor is infallible.
#[derive(Debug)]
pub struct StoredDataset {
    fingerprint: u64,
    grid: Grid,
    cells: Vec<CellMeta>,
    rects: Vec<Rect>,
    ids: Vec<u32>,
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// A section's frame: its name, payload length in words and recorded
/// checksum.
struct Frame {
    what: &'static str,
    len: usize,
    checksum: u64,
}

impl Frame {
    fn verify(&self, sum: u64) -> Result<(), StoreError> {
        if sum == self.checksum {
            Ok(())
        } else {
            Err(corrupt(format!(
                "{} section failed its checksum",
                self.what
            )))
        }
    }
}

/// A store image read front to back, each payload in place in the
/// reader's buffer.
struct Stream<R> {
    src: R,
    /// Words of the image not yet read.
    left: u64,
}

impl<R: BufRead> Stream<R> {
    /// Reads the next frame header; its length is checked against the
    /// words the image has left, so nothing is sized from a length larger
    /// than the image.
    fn frame(&mut self, what: &'static str) -> Result<Frame, StoreError> {
        if self.left < 2 {
            return Err(corrupt(format!("truncated before the {what} frame")));
        }
        let mut header = [[0; 8]; 2];
        self.src.read_exact(header.as_flattened_mut())?;
        self.left -= 2;
        let [len, checksum] = header.map(u64::from_le_bytes);
        let len = usize::try_from(len)
            .ok()
            .filter(|&n| n as u64 <= self.left)
            .ok_or_else(|| corrupt(format!("{what} frame length {len} exceeds the file")))?;
        Ok(Frame {
            what,
            len,
            checksum,
        })
    }

    /// Streams `frame`'s payload through `each` in runs of whole records
    /// (the last may be shorter) and returns its checksum as read.
    fn payload(&mut self, frame: &Frame, mut each: impl FnMut(&[[u8; 8]])) -> io::Result<u64> {
        let mut hash = FrameHash::new(frame.len);
        let mut feed = |bytes: &[u8]| {
            let (words, _) = bytes.as_chunks::<8>();
            for w in words {
                hash.word(u64::from_le_bytes(*w));
            }
            each(words);
        };
        let mut left = 8 * frame.len;
        while left > 0 {
            let buffered = self.src.fill_buf()?;
            let whole = buffered.len().min(left) / RECORD_BYTES * RECORD_BYTES;
            if whole > 0 {
                feed(&buffered[..whole]);
                self.src.consume(whole);
                left -= whole;
            } else {
                // A record split across two fills of the buffer, or the
                // payload's last words.
                let mut record = [0; RECORD_BYTES];
                let part = &mut record[..left.min(RECORD_BYTES)];
                self.src.read_exact(part)?;
                feed(part);
                left -= part.len();
            }
        }
        self.left -= frame.len as u64;
        Ok(hash.0)
    }
}

impl StoredDataset {
    /// Reads and validates a stored dataset from `path` in one streaming
    /// pass (see [`StoredDataset::from_bytes`]).
    ///
    /// # Errors
    /// Filesystem failures and every defect [`StoredDataset::from_bytes`]
    /// detects, with the same message.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let file = fs::File::open(path)?;
        let size = file.metadata()?.len();
        let capacity = usize::try_from(size).map_or(BUFFER_BYTES, |s| s.min(BUFFER_BYTES));
        Self::decode(BufReader::with_capacity(capacity, file), size, None)
    }

    /// Validates serialized bytes and decodes the records.
    ///
    /// # Errors
    /// Rejects bad magic or any version but [`VERSION`], truncated or
    /// checksum-failing sections, inconsistent grid geometry, cell ranges
    /// that do not tile the records, non-finite or inverted rectangles, a
    /// run out of `min_x` order, a record outside its cell's extent or
    /// homed at another cell, ids that are not a permutation of
    /// `0..record_count`, and non-zero id padding.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::decode(bytes, bytes.len() as u64, None)
    }

    /// Like [`StoredDataset::from_bytes`], but restricts the id-uniqueness
    /// scan to the cells in `seed_cells`.
    ///
    /// This is the open for a shard that holds a copy of its own: it seeds
    /// joins only from its own cell range, so only those cells' ids need
    /// the uniqueness scan. Every other check still holds
    /// globally — section checksums cover every byte, and every record is
    /// decoded and checked against its cell (gathers read every cell).
    /// Out-of-scope ids are range-checked but not cross-checked for
    /// uniqueness, so prefer [`StoredDataset::from_bytes`] when the open is
    /// not range-scoped.
    ///
    /// # Errors
    /// Everything [`StoredDataset::from_bytes`] rejects (minus duplicate
    /// ids out of scope), plus a `seed_cells` range that does not lie
    /// within the grid.
    pub fn from_bytes_scoped(bytes: &[u8], seed_cells: Range<u32>) -> Result<Self, StoreError> {
        Self::decode(bytes, bytes.len() as u64, Some(seed_cells))
    }

    /// The one decoder: reads a `size`-byte image from `src` once, hashing
    /// and decoding each section as it passes through `src`'s buffer — a
    /// byte slice is its own, so the slice openers copy nothing.
    ///
    /// The checks report in a fixed order — the file size; each frame's
    /// truncation, length and checksum in file order, with the magic and
    /// version checked before META's checksum; trailing words; the META
    /// structure; the lengths; then the records and the cell table — so a
    /// defect found while streaming a record is held until every earlier
    /// check has passed.
    fn decode(src: impl BufRead, size: u64, scope: Option<Range<u32>>) -> Result<Self, StoreError> {
        if !size.is_multiple_of(8) {
            return Err(corrupt(format!(
                "file size {size} is not a whole number of words"
            )));
        }
        let mut stream = Stream {
            src,
            left: size / 8,
        };

        let meta_frame = stream.frame("META")?;
        let mut meta = Vec::with_capacity(meta_frame.len);
        let sum = stream.payload(&meta_frame, |block| {
            meta.extend(block.iter().map(|w| u64::from_le_bytes(*w)));
        })?;
        // Before the checksum, so a store of another version is named as
        // such instead of failing a checksum it was never sealed with.
        if let [magic, version, ..] = meta[..] {
            if magic != MAGIC {
                return Err(corrupt("bad magic: not a dataset store"));
            }
            if version != VERSION {
                return Err(corrupt(format!("unsupported format version {version}")));
            }
        }
        meta_frame.verify(sum)?;

        // The record arrays are reserved from the ENTRIES length, which
        // `frame` checked against the image; a valid store declares that
        // many records in META, so they end at exactly that count.
        let entries = stream.frame("ENTRIES")?;
        let cap = entries.len / 4;
        let mut rects = Vec::with_capacity(cap);
        let mut bad_rect = None;
        let sum = stream.payload(&entries, |block| {
            for c in block.as_chunks::<4>().0 {
                if bad_rect.is_some() {
                    return;
                }
                let [min_x, min_y, max_x, max_y] = c.map(|w| f64::from_bits(u64::from_le_bytes(w)));
                match Rect::from_bounds(min_x, min_y, max_x, max_y) {
                    Some(rect) => rects.push(rect),
                    None => bad_rect = Some(rects.len()),
                }
            }
        })?;
        entries.verify(sum)?;

        let id_words = stream.frame("IDS")?;
        let mut ids = Vec::with_capacity(cap);
        let (mut bad_padding, mut bad_id) = (false, None);
        let sum = stream.payload(&id_words, |block| {
            for w in block {
                let w = u64::from_le_bytes(*w);
                for id in [w as u32, (w >> 32) as u32] {
                    if ids.len() == cap {
                        bad_padding |= id != 0;
                        continue;
                    }
                    if id as usize >= cap && bad_id.is_none() {
                        bad_id = Some((ids.len(), id));
                    }
                    ids.push(id);
                }
            }
        })?;
        id_words.verify(sum)?;
        if stream.left != 0 {
            return Err(corrupt(format!("{} trailing words", stream.left)));
        }

        if meta.len() < META_HEADER_WORDS {
            return Err(corrupt("META header is truncated"));
        }
        let fingerprint = meta[2];
        let x0 = f64::from_bits(meta[4]);
        let xn = f64::from_bits(meta[5]);
        let y0 = f64::from_bits(meta[6]);
        let yn = f64::from_bits(meta[7]);
        let cols = u32::try_from(meta[8]).map_err(|_| corrupt("column count exceeds u32"))?;
        let rows = u32::try_from(meta[9]).map_err(|_| corrupt("row count exceeds u32"))?;
        if !(x0.is_finite()
            && xn.is_finite()
            && y0.is_finite()
            && yn.is_finite()
            && xn > x0
            && yn > y0)
        {
            return Err(corrupt("grid ranges are not finite ascending intervals"));
        }
        if cols == 0 || rows == 0 || cols.checked_mul(rows).is_none() {
            return Err(corrupt("grid cell counts are zero or overflow"));
        }
        let grid = Grid::new((x0, xn), (y0, yn), cols, rows);
        let num_cells = grid.num_cells() as usize;
        if meta[10] != num_cells as u64 {
            return Err(corrupt(format!(
                "cell table claims {} cells for a {cols}x{rows} grid",
                meta[10]
            )));
        }
        if meta.len() != META_HEADER_WORDS + num_cells * META_CELL_WORDS {
            return Err(corrupt("META cell table has the wrong length"));
        }
        if let Some(r) = &scope {
            if r.start > r.end || r.end as usize > num_cells {
                return Err(corrupt(format!(
                    "seed cell range {}..{} does not lie within the {num_cells}-cell grid",
                    r.start, r.end
                )));
            }
        }

        let n = usize::try_from(meta[3])
            .ok()
            .filter(|&n| n.checked_mul(4) == Some(entries.len))
            .ok_or_else(|| {
                corrupt(format!(
                    "{} ENTRIES words for {} records",
                    entries.len, meta[3]
                ))
            })?;
        if id_words.len != n.div_ceil(2) {
            return Err(corrupt(format!(
                "{} IDS words for {n} records",
                id_words.len
            )));
        }
        if let Some(i) = bad_rect {
            return Err(corrupt(format!(
                "record {i}: non-finite or inverted rectangle"
            )));
        }
        if bad_padding {
            return Err(corrupt("id padding is not zero"));
        }
        if let Some((i, id)) = bad_id {
            return Err(corrupt(format!("record {i}: id {id} is out of range")));
        }
        debug_assert_eq!((rects.len(), ids.len()), (n, n));

        // The runs must tile the records back to back, which is what lets a
        // scoped open skip the uniqueness scan out of scope without giving
        // up coverage or disjointness.
        let mut cells = Vec::with_capacity(num_cells);
        let mut seen = vec![false; n];
        let mut next = 0usize;
        for (c, at) in meta[META_HEADER_WORDS..]
            .chunks_exact(META_CELL_WORDS)
            .enumerate()
        {
            if at[0] != next as u64 || at[1] > (n - next) as u64 {
                return Err(corrupt(format!(
                    "cell {c}: entry range {}+{} does not continue at {next} within {n}",
                    at[0], at[1]
                )));
            }
            let entries = next..next + at[1] as usize;
            next = entries.end;
            let [min_x, min_y, max_x, max_y] = [2, 3, 4, 5].map(|k| f64::from_bits(at[k]));
            let extent = Rect::from_bounds(min_x, min_y, max_x, max_y)
                .ok_or_else(|| corrupt(format!("cell {c}: non-finite or inverted extent")))?;
            let run = &rects[entries.clone()];
            if !run.is_empty() && !grid.extent().contains_rect(&extent) {
                return Err(corrupt(format!("cell {c}: extent lies outside the grid")));
            }
            // Inside the extent, hence inside the grid: `cell_of` is defined.
            if let Some(k) = run.iter().position(|r| !extent.contains_rect(r)) {
                return Err(corrupt(format!(
                    "cell {c}: record {} lies outside the cell extent",
                    entries.start + k
                )));
            }
            if run.windows(2).any(|p| p[0].min_x() > p[1].min_x()) {
                return Err(corrupt(format!("cell {c}: run is not in ascending min_x")));
            }
            if let Some(k) = run.iter().position(|r| grid.cell_of(r).0 as usize != c) {
                return Err(corrupt(format!(
                    "cell {c}: record {} is homed at another cell",
                    entries.start + k
                )));
            }
            let in_scope = scope.as_ref().is_none_or(|r| r.contains(&(c as u32)));
            if in_scope {
                for &id in &ids[entries.clone()] {
                    if std::mem::replace(&mut seen[id as usize], true) {
                        return Err(corrupt(format!("cell {c}: id {id} is duplicated")));
                    }
                }
            }
            cells.push(CellMeta { entries, extent });
        }
        if next != n {
            return Err(corrupt(format!("cell ranges cover {next} of {n} records")));
        }
        Ok(Self {
            fingerprint,
            grid,
            cells,
            rects,
            ids,
        })
    }

    /// The DFS-compatible dataset fingerprint recorded at ingest time.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of records in the relation.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.rects.len() as u64
    }

    /// The partitioning grid, reconstructed bit-exactly.
    #[must_use]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The records homed at `cell` in ascending `min_x`, and their
    /// input-order ids.
    ///
    /// # Panics
    /// Panics when `cell` is out of range for the grid.
    #[must_use]
    pub fn cell(&self, cell: CellId) -> (&[Rect], &[u32]) {
        let entries = &self.cells[cell.0 as usize].entries;
        (&self.rects[entries.clone()], &self.ids[entries.clone()])
    }

    /// The union extent of the records homed at `cell`; `None` when the
    /// cell is empty.
    ///
    /// # Panics
    /// Panics when `cell` is out of range for the grid.
    #[must_use]
    pub fn cell_extent(&self, cell: CellId) -> Option<Rect> {
        let meta = &self.cells[cell.0 as usize];
        (!meta.entries.is_empty()).then_some(meta.extent)
    }

    /// The `(rect, input_order_id)` at storage position `i` (cell by
    /// cell, each run in `min_x` order) — O(1) random access, for sampling
    /// and for a map phase that reads the store in place.
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    #[must_use]
    pub fn nth(&self, i: usize) -> (Rect, u32) {
        (self.rects[i], self.ids[i])
    }

    /// Iterates over every `(rect, input_order_id)` in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (Rect, u32)> + '_ {
        self.rects.iter().copied().zip(self.ids.iter().copied())
    }

    /// Reconstructs the relation in original input order — the fallback
    /// for algorithms that need materialized inputs. Corner coordinates
    /// are bit-exact to the ingested rectangles.
    #[must_use]
    pub fn materialize(&self) -> Vec<Rect> {
        let mut out = vec![Rect::new(0.0, 0.0, 0.0, 0.0); self.rects.len()];
        for (rect, id) in self.iter() {
            out[id as usize] = rect;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid() -> Grid {
        Grid::square((0.0, 1000.0), (0.0, 1000.0), 4)
    }

    fn random_rects(n: usize, seed: u64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.random_range(0.0..960.0);
                let y = rng.random_range(40.0..1000.0);
                let l = rng.random_range(0.0..40.0);
                let b = rng.random_range(0.0..40.0);
                Rect::new(x, y, l, b)
            })
            .collect()
    }

    #[test]
    fn round_trips_records_grid_and_fingerprint() {
        let grid = grid();
        let rects = random_rects(500, 7);
        let bytes = StoreBuilder::new(&grid).build(&rects).unwrap();
        let store = StoredDataset::from_bytes(&bytes).unwrap();
        assert_eq!(store.record_count(), 500);
        assert_eq!(store.fingerprint(), dataset_fingerprint(&rects));
        assert_eq!(store.grid(), &grid);
        assert_eq!(store.materialize(), rects);
    }

    #[test]
    fn cells_partition_the_relation_by_home_cell() {
        let grid = grid();
        for n in [300, 301] {
            let rects = random_rects(n, 11);
            let bytes = StoreBuilder::new(&grid).build(&rects).unwrap();
            // Three frames, the header, six words a cell, four a record and
            // half a word of id: no tree, no widened id.
            let words = 6 + 11 + 6 * grid.num_cells() as usize + 4 * n + n.div_ceil(2);
            assert_eq!(bytes.len(), 8 * words);
            let store = StoredDataset::from_bytes(&bytes).unwrap();
            let mut total = 0;
            for cell in grid.cells() {
                let (run, ids) = store.cell(cell);
                total += run.len();
                assert_eq!(run.len(), ids.len());
                for (rect, id) in run.iter().zip(ids) {
                    assert_eq!(grid.cell_of(rect), cell);
                    assert_eq!(rects[*id as usize], *rect);
                    let extent = store.cell_extent(cell).unwrap();
                    assert!(extent.contains_rect(rect));
                }
                let keys: Vec<_> = run.iter().map(Rect::min_x).zip(ids).collect();
                assert!(keys.windows(2).all(|p| p[0] < p[1]), "{cell:?} unsorted");
            }
            assert_eq!(total, rects.len());
        }
    }

    #[test]
    fn empty_relation_round_trips() {
        let grid = grid();
        let bytes = StoreBuilder::new(&grid).build(&[]).unwrap();
        let store = StoredDataset::from_bytes(&bytes).unwrap();
        assert_eq!(store.record_count(), 0);
        assert!(store.materialize().is_empty());
        for cell in grid.cells() {
            assert!(store.cell(cell).0.is_empty());
            assert_eq!(store.cell_extent(cell), None);
        }
    }

    #[test]
    fn rejects_rects_outside_the_grid() {
        let grid = grid();
        let rects = vec![Rect::new(1500.0, 100.0, 5.0, 5.0)];
        assert!(matches!(
            StoreBuilder::new(&grid).build(&rects),
            Err(StoreError::Ingest(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_round_trip_preserves_records_and_fingerprint(
            raw in proptest::collection::vec(
                (0.0..950.0f64, 50.0..1000.0f64, 0.0..50.0f64, 0.0..50.0f64),
                0..120,
            )
        ) {
            let grid = grid();
            let rects: Vec<Rect> = raw
                .iter()
                .map(|&(x, y, l, b)| Rect::new(x, y, l, b))
                .collect();
            let bytes = StoreBuilder::new(&grid).build(&rects).unwrap();
            let store = StoredDataset::from_bytes(&bytes).unwrap();

            // Ingest -> open preserves the records bit-for-bit.
            prop_assert_eq!(store.record_count(), rects.len() as u64);
            prop_assert_eq!(store.materialize(), rects.clone());
            prop_assert_eq!(store.fingerprint(), dataset_fingerprint(&rects));
        }
    }

    /// The recipe is every result-cache key's dataset half: a change here
    /// silently invalidates every cached answer and every pinned reply.
    #[test]
    fn dataset_fingerprint_recipe_is_pinned() {
        assert_eq!(dataset_fingerprint(&[]), 0xa8c7_f832_281a_39c5);
        let rects = [
            Rect::new(0.0, 10.0, 2.0, 3.0),
            Rect::new(100.5, 200.25, 7.0, 0.5),
            Rect::new(999.0, 1000.0, 1.0, 1.0),
        ];
        assert_eq!(dataset_fingerprint(&rects), 0x3779_21bc_d179_4187);
    }

    #[test]
    fn same_seed_regeneration_fingerprints_identically() {
        assert_eq!(
            dataset_fingerprint(&random_rects(500, 42)),
            dataset_fingerprint(&random_rects(500, 42))
        );
    }

    #[test]
    fn one_rect_perturbation_changes_fingerprint() {
        let base = random_rects(500, 42);
        let mut perturbed = base.clone();
        let r = perturbed[250];
        perturbed[250] = Rect::new(r.x() + 1e-9, r.y(), r.l(), r.b());
        assert_ne!(dataset_fingerprint(&base), dataset_fingerprint(&perturbed));
    }

    #[test]
    fn scoped_open_matches_the_full_open() {
        let grid = grid();
        let rects = random_rects(400, 21);
        let bytes = StoreBuilder::new(&grid).build(&rects).unwrap();
        let full = StoredDataset::from_bytes(&bytes).unwrap();
        let num_cells = grid.num_cells();
        for range in [0..num_cells, 0..4, 4..11, 11..num_cells, 5..5] {
            let scoped = StoredDataset::from_bytes_scoped(&bytes, range.clone()).unwrap();
            assert_eq!(scoped.fingerprint(), full.fingerprint());
            assert_eq!(scoped.record_count(), full.record_count());
            assert_eq!(scoped.grid(), full.grid());
            for cell in grid.cells() {
                // Every cell — in scope or not — is identical to the full
                // open's view; gathers read all of them.
                assert_eq!(
                    scoped.cell(cell),
                    full.cell(cell),
                    "cell {cell:?} under scope {range:?}"
                );
            }
        }
    }

    #[test]
    fn scoped_open_still_verifies_every_checksum() {
        let grid = grid();
        let rects = random_rects(150, 23);
        let bytes = StoreBuilder::new(&grid).build(&rects).unwrap();
        // Corrupt a byte deep in the ENTRIES section: even when the
        // damaged cell is outside the scope, the section checksum fires.
        let mut bad = bytes.clone();
        let at = bad.len() - 8 * 80;
        bad[at] ^= 0x01;
        assert!(StoredDataset::from_bytes_scoped(&bad, 0..1).is_err());
    }

    #[test]
    fn scoped_range_must_lie_within_the_grid() {
        let grid = grid();
        let bytes = StoreBuilder::new(&grid)
            .build(&random_rects(10, 29))
            .unwrap();
        let num_cells = grid.num_cells();
        assert!(StoredDataset::from_bytes_scoped(&bytes, 0..num_cells + 1).is_err());
        assert!(StoredDataset::from_bytes_scoped(&bytes, num_cells..num_cells).is_ok());
    }

    /// A file named for one test, removed when dropped: the image `open`
    /// streams, so every corrupt image is judged by both openers.
    struct ScratchFile(std::path::PathBuf);

    impl ScratchFile {
        fn new(test: &str) -> Self {
            let name = format!("mwsj-store-{}-{test}.store", std::process::id());
            Self(std::env::temp_dir().join(name))
        }

        /// The message `from_bytes` rejects `bytes` with, after checking
        /// that `open` on a file of the same bytes rejects it with the
        /// same one.
        fn corrupt_message(&self, bytes: &[u8]) -> String {
            fs::write(&self.0, bytes).unwrap();
            match (
                StoredDataset::from_bytes(bytes),
                StoredDataset::open(&self.0),
            ) {
                (Err(StoreError::Corrupt(sliced)), Err(StoreError::Corrupt(streamed))) => {
                    assert_eq!(sliced, streamed, "from_bytes and open disagree");
                    sliced
                }
                other => panic!("expected a corrupt store from both openers, got {other:?}"),
            }
        }

        /// Asserts the image is rejected as corrupt, naming `why`.
        fn rejected(&self, bytes: &[u8], why: &str) {
            let msg = self.corrupt_message(bytes);
            assert!(msg.contains(why), "{msg:?}, not {why:?}");
        }
    }

    impl Drop for ScratchFile {
        fn drop(&mut self) {
            fs::remove_file(&self.0).ok();
        }
    }

    #[test]
    fn every_corrupted_word_is_detected() {
        let grid = grid();
        let rects = random_rects(200, 3);
        let bytes = StoreBuilder::new(&grid).build(&rects).unwrap();
        assert!(StoredDataset::from_bytes(&bytes).is_ok());
        let file = ScratchFile::new("every-word");

        // Truncations at every section boundary.
        for cut in [0, 8, 80, bytes.len() / 2, bytes.len() - 8] {
            file.corrupt_message(&bytes[..cut]);
        }
        // Odd byte length.
        file.rejected(&bytes[..bytes.len() - 3], "not a whole number of words");

        // Flip one bit in every word: either a frame checksum fires or
        // (for the frame words and the magic and version) structural
        // validation does.
        let words = bytes.len() / 8;
        let mut rng = StdRng::seed_from_u64(99);
        for w in 0..words {
            let mut bad = bytes.clone();
            let bit = rng.random_range(0..64u32);
            let byte = w * 8 + (bit / 8) as usize;
            bad[byte] ^= 1 << (bit % 8);
            file.corrupt_message(&bad);
        }
    }

    /// A file several times `open`'s buffer, so records straddle its
    /// refills: the streamed open equals the in-memory one, and a defect
    /// anywhere is named alike.
    #[test]
    fn open_streams_a_file_larger_than_its_buffer() {
        let grid = grid();
        let rects = random_rects(5_000, 37);
        let bytes = StoreBuilder::new(&grid).build(&rects).unwrap();
        assert!(bytes.len() > 2 * BUFFER_BYTES);
        let file = ScratchFile::new("large");
        fs::write(&file.0, &bytes).unwrap();
        let streamed = StoredDataset::open(&file.0).unwrap();
        assert!(streamed
            .iter()
            .eq(StoredDataset::from_bytes(&bytes).unwrap().iter()));
        assert_eq!(streamed.materialize(), rects);

        let words = bytes.len() / 8;
        for w in [words / 3, words / 2, words - 1] {
            let mut bad = bytes.clone();
            bad[8 * w] ^= 1;
            file.corrupt_message(&bad);
        }
        let [meta, mut entries, ids] = sections(&bytes);
        entries[4 * 4_321 + 3] = f64::NAN.to_bits();
        file.rejected(
            &seal(&[meta, entries, ids]),
            "record 4321: non-finite or inverted rectangle",
        );
    }

    /// VERSION 3's frame checksum: a change here fails every store on
    /// disk, so it is a format version of its own.
    #[test]
    fn frame_checksum_is_pinned() {
        assert_eq!(frame_checksum(&[]), 0xf7e2_7bea_df41_96a5);
        assert_eq!(frame_checksum(&[MAGIC, 3]), 0x53bb_a78a_552d_c59a);
        assert_eq!(frame_checksum(&[0, 1, u64::MAX]), 0x9a94_5739_0852_9076);
    }

    /// A real VERSION 2 store: this layout, sealed with the byte-wise
    /// FNV-64 over each frame's word count and payload that it used.
    #[test]
    fn a_version_2_store_is_refused_by_its_version() {
        let grid = grid();
        let bytes = StoreBuilder::new(&grid)
            .build(&random_rects(50, 31))
            .unwrap();
        let mut v2 = sections(&bytes);
        v2[0][1] = 2;
        let mut image = Vec::new();
        for section in &v2 {
            let mut fnv = Fnv64::new();
            fnv.write_u64(section.len() as u64);
            for &w in section {
                fnv.write_u64(w);
            }
            image.extend((section.len() as u64).to_le_bytes());
            image.extend(fnv.finish().to_le_bytes());
            image.extend(section.iter().flat_map(|w| w.to_le_bytes()));
        }
        ScratchFile::new("version-2").rejected(&image, "unsupported format version 2");
    }

    /// A store image's three sections as words.
    fn sections(bytes: &[u8]) -> [Vec<u64>; 3] {
        let words: Vec<u64> = (bytes.as_chunks::<8>().0.iter())
            .map(|w| u64::from_le_bytes(*w))
            .collect();
        let mut rest = &words[..];
        [(); 3].map(|()| {
            let (section, tail) = rest[2..].split_at(rest[0] as usize);
            rest = tail;
            section.to_vec()
        })
    }

    /// Frames `sections` with fresh checksums, so only a structural check
    /// can reject the image.
    fn seal(sections: &[Vec<u64>]) -> Vec<u8> {
        let mut out = Vec::new();
        for section in sections {
            push_framed(&mut out, section);
        }
        out
    }

    /// The first cell whose run has two records of distinct `min_x`.
    fn cell_with_distinct_run(store: &StoredDataset) -> (usize, usize) {
        (0..store.cells.len())
            .find_map(|c| {
                let run = store.cell(CellId(c as u32)).0;
                let k = run.windows(2).position(|p| p[0].min_x() < p[1].min_x())?;
                Some((c, store.cells[c].entries.start + k))
            })
            .expect("a run with two distinct min_x")
    }

    #[test]
    fn resealed_structural_defects_are_rejected() {
        let grid = grid();
        let n = 201;
        let bytes = StoreBuilder::new(&grid).build(&random_rects(n, 5)).unwrap();
        let store = StoredDataset::from_bytes(&bytes).unwrap();
        let [meta, entries, ids] = sections(&bytes);
        assert_eq!(seal(&[meta.clone(), entries.clone(), ids.clone()]), bytes);
        let cell_word = |c: usize, k: usize| META_HEADER_WORDS + c * META_CELL_WORDS + k;
        let file = ScratchFile::new("resealed");

        // A VERSION 1 file: this image under the old version word, and
        // the exact V1 image of an empty relation (eight META words a
        // cell, then empty ENTRIES and NODES).
        let mut v1 = meta.clone();
        v1[1] = 1;
        file.rejected(
            &seal(&[v1, entries.clone(), ids.clone()]),
            "unsupported format version 1",
        );
        let mut empty_v1 = meta[..META_HEADER_WORDS].to_vec();
        (empty_v1[1], empty_v1[2], empty_v1[3]) = (1, dataset_fingerprint(&[]), 0);
        empty_v1.resize(META_HEADER_WORDS + 8 * grid.num_cells() as usize, 0);
        file.rejected(
            &seal(&[empty_v1, Vec::new(), Vec::new()]),
            "unsupported format version 1",
        );

        // One trailing word.
        let mut long = bytes.clone();
        long.extend([0; 8]);
        file.rejected(&long, "1 trailing words");

        // Wrong magic, and a META too short for its header.
        let mut magic = meta.clone();
        magic[0] ^= 1;
        file.rejected(&seal(&[magic, entries.clone(), ids.clone()]), "bad magic");
        file.rejected(
            &seal(&[meta[..5].to_vec(), entries.clone(), ids.clone()]),
            "META header is truncated",
        );

        // Lengths that disagree with the declared count: one record more
        // in META, one id word too many.
        let mut more = meta.clone();
        more[3] += 1;
        file.rejected(
            &seal(&[more, entries.clone(), ids.clone()]),
            &format!("{} ENTRIES words for {} records", 4 * n, n + 1),
        );
        let mut long_ids = ids.clone();
        long_ids.push(0);
        file.rejected(
            &seal(&[meta.clone(), entries.clone(), long_ids]),
            &format!("{} IDS words for {n} records", n.div_ceil(2) + 1),
        );

        // Record defects found while streaming, reported after every
        // structural check: a NaN corner, then an id out of range, which
        // non-zero padding outranks.
        let mut nan = entries.clone();
        nan[4 * 7 + 2] = f64::NAN.to_bits();
        file.rejected(
            &seal(&[meta.clone(), nan.clone(), ids.clone()]),
            "record 7: non-finite or inverted rectangle",
        );
        let mut out_of_range = ids.clone();
        out_of_range[1] |= (n as u64) << 32;
        file.rejected(
            &seal(&[meta.clone(), entries.clone(), out_of_range.clone()]),
            &format!("record 3: id {} is out of range", ids[1] >> 32 | n as u64),
        );
        *out_of_range.last_mut().unwrap() |= 1 << 32;
        file.rejected(
            &seal(&[meta.clone(), entries.clone(), out_of_range.clone()]),
            "id padding is not zero",
        );
        file.rejected(
            &seal(&[meta.clone(), nan, out_of_range]),
            "record 7: non-finite",
        );

        // Truncation at every section boundary: before and after each
        // frame header.
        let mut at = 0;
        for (section, what) in [(&meta, "META"), (&entries, "ENTRIES"), (&ids, "IDS")] {
            file.rejected(&bytes[..at], &format!("truncated before the {what} frame"));
            file.rejected(&bytes[..at + 16], &format!("{what} frame length"));
            at += 8 * (2 + section.len());
        }

        // An unsorted run: two records of one cell swapped, ids with them.
        let (c, i) = cell_with_distinct_run(&store);
        let mut swapped = entries.clone();
        for k in 0..4 {
            swapped.swap(4 * i + k, 4 * i + 4 + k);
        }
        let mut swapped_ids = ids.clone();
        let id = |w: &[u64], i: usize| (w[i / 2] >> (32 * (i % 2))) as u32;
        let (a, b) = (id(&ids, i), id(&ids, i + 1));
        for (pos, value) in [(i, b), (i + 1, a)] {
            let shift = 32 * (pos % 2);
            swapped_ids[pos / 2] &= !(0xFFFF_FFFF << shift);
            swapped_ids[pos / 2] |= u64::from(value) << shift;
        }
        file.rejected(
            &seal(&[meta.clone(), swapped, swapped_ids]),
            &format!("cell {c}: run is not in ascending min_x"),
        );

        // A rectangle outside its cell's extent: the extent's right edge
        // pulled in by one float, so the record that defines it sticks out.
        let c = (0..store.cells.len())
            .find(|&c| {
                store
                    .cell_extent(CellId(c as u32))
                    .is_some_and(|e| e.l() > 0.0)
            })
            .expect("a cell with extent");
        let mut narrow = meta.clone();
        narrow[cell_word(c, 4)] = f64::from_bits(narrow[cell_word(c, 4)])
            .next_down()
            .to_bits();
        file.rejected(
            &seal(&[narrow, entries.clone(), ids.clone()]),
            "lies outside the cell extent",
        );

        // A rectangle filed under the wrong home cell: the last record of
        // a cell moved to the front of its right neighbour's run, whose
        // extent grows to the whole grid (so only the home check is left;
        // its `min_x` is below the neighbour's, so the run stays sorted).
        let c = (0..store.cells.len())
            .find(|&c| {
                (c + 1) % grid.cols() as usize != 0
                    && !store.cells[c].entries.is_empty()
                    && !store.cells[c + 1].entries.is_empty()
            })
            .expect("two non-empty neighbours");
        let mut moved = meta.clone();
        moved[cell_word(c, 1)] -= 1;
        moved[cell_word(c + 1, 0)] -= 1;
        moved[cell_word(c + 1, 1)] += 1;
        for (k, bound) in grid.extent().bounds().into_iter().enumerate() {
            moved[cell_word(c + 1, 2 + k)] = bound.to_bits();
        }
        file.rejected(
            &seal(&[moved, entries.clone(), ids.clone()]),
            &format!(
                "cell {}: record {} is homed at another cell",
                c + 1,
                store.cells[c].entries.end - 1
            ),
        );

        // Non-zero id padding: `n` is odd, so the last word has a free half.
        assert_eq!(n % 2, 1);
        let mut padded = ids.clone();
        *padded.last_mut().unwrap() |= 1 << 32;
        file.rejected(
            &seal(&[meta.clone(), entries.clone(), padded]),
            "id padding is not zero",
        );

        // A duplicated id: the second record takes the first one's.
        let mut duplicated = ids.clone();
        duplicated[0] = (duplicated[0] & 0xFFFF_FFFF) * 0x1_0000_0001;
        file.rejected(&seal(&[meta, entries, duplicated]), "is duplicated");
    }
}
