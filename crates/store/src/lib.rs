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
//!                                extent min_x, min_y, max_x, max_y (bits),
//!                                column widths (four bytes, low first)
//! [frame] ENTRIES four residuals per record, bit-packed, cell by cell,
//!                 each cell's run in ascending min_x (ties by id)
//! [frame] IDS     the records' input-order ids in ENTRIES order,
//!                 bit-packed
//! ```
//!
//! A residual is the wrapping `i64` difference of two IEEE bit patterns,
//! zigzag-coded, so every corner comes back bit for bit (`-0.0`,
//! subnormals and negatives included). Per record, in run order: `min_x`
//! against the previous record's `min_x` (the cell extent's for the
//! first), `min_y` against the extent's `min_y`, `max_x` against `min_x`
//! and `max_y` against `min_y`. A cell's width for a column is the bit
//! length of its largest residual there, 0 to 64; an id takes `w_id`, the
//! bit length of `record_count − 1` (0 for at most one record). Fields are
//! packed LSB-first with no gap between cells, and the bits after the last
//! field of a section are zero.
//!
//! A store of `n` records over `cells` cells is `8 × (6 + 11 + 7·cells +
//! ⌈Σ_c n_c·W_c / 64⌉ + ⌈n·w_id / 64⌉)` bytes, where `n_c` is cell `c`'s
//! record count and `W_c` the sum of its four widths.
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

/// Current (and only) format version. VERSION 4 bit-packs each record's
/// corners as residuals against what the run and its cell already hold,
/// and each id in just enough bits. VERSION 3 (a raw word per corner,
/// two ids a word) and VERSION 2 (that layout under a byte-wise FNV-64
/// frame checksum instead of the word-wise one) are refused.
pub const VERSION: u64 = 4;

/// Fixed META words before the per-cell table.
const META_HEADER_WORDS: usize = 11;

/// META words per cell: the entry range, the cell extent and the column
/// widths.
const META_CELL_WORDS: usize = 7;

/// `open`'s read buffer, unless the file is smaller.
const BUFFER_BYTES: usize = 64 * 1024;

/// Words a payload is copied out of the reader's buffer and hashed in, a
/// block on the stack at a time.
const FETCH_WORDS: usize = 64;

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

/// The zigzag code of `value − predictor`, a wrapping `i64` difference of
/// bit patterns: a residual of either sign takes as many bits as its
/// magnitude needs.
fn residual(value: u64, predictor: u64) -> u64 {
    let d = value.wrapping_sub(predictor).cast_signed();
    ((d << 1) ^ (d >> 63)).cast_unsigned()
}

/// The value whose [`residual`] against `predictor` is `code`.
fn restore(predictor: u64, code: u64) -> u64 {
    predictor.wrapping_add((code >> 1) ^ (code & 1).wrapping_neg())
}

/// Bits a field needs to hold `v`.
fn bit_len(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
}

/// Bits an id takes in a store of `n` records.
fn id_width(n: u64) -> u32 {
    bit_len(n.saturating_sub(1))
}

/// The four column widths of a META widths word, low byte first.
fn split_widths(word: u64) -> [u32; 4] {
    [0, 8, 16, 24].map(|shift| u32::from((word >> shift) as u8))
}

/// The residuals of a cell's run, in run order, against the predictors
/// `min_x` of the previous record (`ext_min_x` for the first), `ext_min_y`,
/// and the record's own `min_x` and `min_y`.
fn residuals(
    run: &[[u64; 4]],
    ext_min_x: u64,
    ext_min_y: u64,
) -> impl Iterator<Item = [u64; 4]> + '_ {
    run.iter()
        .scan(ext_min_x, move |prev, &[min_x, min_y, max_x, max_y]| {
            let code = [
                residual(min_x, *prev),
                residual(min_y, ext_min_y),
                residual(max_x, min_x),
                residual(max_y, min_y),
            ];
            *prev = min_x;
            Some(code)
        })
}

/// Packs fields LSB-first into words; the bits after the last field stay
/// zero.
#[derive(Default)]
struct BitWriter {
    words: Vec<u64>,
    bits: u64,
}

impl BitWriter {
    fn put(&mut self, value: u64, width: u32) {
        debug_assert!(
            bit_len(value) <= width,
            "{value} needs more than {width} bits"
        );
        if width == 0 {
            return;
        }
        let at = (self.bits % 64) as u32;
        if at == 0 {
            self.words.push(value);
        } else {
            *self.words.last_mut().expect("a started word") |= value << at;
            if at + width > 64 {
                self.words.push(value >> (64 - at));
            }
        }
        self.bits += u64::from(width);
    }
}

/// The ENTRIES and IDS payloads of `records` (corner bit patterns) and
/// `ids`, both in storage order, as META's cell table divides them into
/// runs; writes each cell's column widths into its META row.
fn pack(meta: &mut [u64], records: &[[u64; 4]], ids: &[u32]) -> [Vec<u64>; 2] {
    let mut entries = BitWriter::default();
    for row in meta[META_HEADER_WORDS..].chunks_exact_mut(META_CELL_WORDS) {
        let run = &records[row[0] as usize..][..row[1] as usize];
        let widths = residuals(run, row[2], row[3]).fold([0; 4], |w, code| {
            [0, 1, 2, 3].map(|k| w[k].max(bit_len(code[k])))
        });
        row[6] = (widths.iter().rev()).fold(0, |word, &w| word << 8 | u64::from(w));
        for code in residuals(run, row[2], row[3]) {
            for (field, width) in code.into_iter().zip(widths) {
                entries.put(field, width);
            }
        }
    }
    let width = id_width(meta[3]);
    let mut id_bits = BitWriter::default();
    for &id in ids {
        id_bits.put(u64::from(id), width);
    }
    [entries.words, id_bits.words]
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

        let mut records = Vec::with_capacity(rects.len());
        let mut ids = Vec::with_capacity(rects.len());
        for mut run in per_cell {
            // Pushed in input order, so the stable sort breaks ties by id.
            run.sort_by(|a, b| a.0.min_x().total_cmp(&b.0.min_x()));
            let extent = (run.iter().map(|(r, _)| *r))
                .reduce(|a, b| a.union(&b))
                .unwrap_or(Rect::new(0.0, 0.0, 0.0, 0.0));
            meta.extend([records.len() as u64, run.len() as u64]);
            meta.extend(extent.bounds().map(f64::to_bits));
            // The widths, which `pack` fills in.
            meta.push(0);
            for (r, id) in run {
                records.push(r.bounds().map(f64::to_bits));
                ids.push(id);
            }
        }
        let [entries, ids] = pack(&mut meta, &records, &ids);

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
    /// The side sums and maxima of the records.
    sides: Sides,
}

/// The side statistic of a relation, folded in one pass over its records:
/// the sums of every body's length ([`Rect::l`]), breadth ([`Rect::b`])
/// and area, and the largest of each side. With the records per home cell
/// it is all the planner prices a relation by; the maxima are the reach
/// C-Rep-L and a map-side gather assume.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sides {
    /// `Σ l` over the records.
    pub sum_l: f64,
    /// `Σ b` over the records.
    pub sum_b: f64,
    /// `Σ l·b` over the records.
    pub sum_lb: f64,
    /// The largest `l`, 0 when there is no record.
    pub max_l: f64,
    /// The largest `b`, 0 when there is no record.
    pub max_b: f64,
}

impl Sides {
    /// Folds one record in.
    pub fn add(&mut self, r: &Rect) {
        let (l, b) = (r.l(), r.b());
        self.sum_l += l;
        self.sum_b += b;
        self.sum_lb += l * b;
        self.max_l = self.max_l.max(l);
        self.max_b = self.max_b.max(b);
    }

    /// The statistic of a relation.
    #[must_use]
    pub fn of(rects: &[Rect]) -> Self {
        let mut sides = Self::default();
        rects.iter().for_each(|r| sides.add(r));
        sides
    }
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

/// A store image read front to back through the reader's buffer.
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

    /// `frame`'s payload, to be read field by field.
    fn words(&mut self, frame: &Frame) -> Words<'_, R> {
        self.left -= frame.len as u64;
        Words {
            src: &mut self.src,
            left: frame.len,
            hash: FrameHash::new(frame.len),
            block: [0; FETCH_WORDS + 2],
            len: 0,
            bit: 0,
        }
    }
}

/// A frame's payload, read LSB-first as fields of up to 64 bits. Its words
/// are copied out of the source and hashed a block at a time, so a field
/// is read from two words of the block at a fixed cost.
struct Words<'s, R> {
    src: &'s mut R,
    /// Payload words not fetched yet.
    left: usize,
    hash: FrameHash,
    /// The fetched words not wholly read, then a zero word.
    block: [u64; FETCH_WORDS + 2],
    len: usize,
    /// The next bit to read, counted from the start of `block`.
    bit: usize,
}

impl<R: BufRead> Words<'_, R> {
    /// The next `width`-bit field, `width` at most 64.
    fn read(&mut self, width: u32) -> io::Result<u64> {
        while self.bit + width as usize > 64 * self.len {
            self.fetch()?;
        }
        let (i, shift) = (self.bit / 64, self.bit % 64);
        let pair = u128::from(self.block[i]) | u128::from(self.block[i + 1]) << 64;
        self.bit += width as usize;
        Ok((pair >> shift) as u64 & u64::MAX.unbounded_shr(64 - width))
    }

    /// Moves the word being read, if any, to the front of the block and
    /// fetches up to `FETCH_WORDS` more after it.
    fn fetch(&mut self) -> io::Result<()> {
        let read = self.bit / 64;
        self.block.copy_within(read..self.len, 0);
        (self.len, self.bit) = (self.len - read, self.bit % 64);
        let more = self.left.min(FETCH_WORDS);
        if more == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let mut bytes = [[0; 8]; FETCH_WORDS];
        self.src.read_exact(bytes[..more].as_flattened_mut())?;
        for (word, bytes) in self.block[self.len..].iter_mut().zip(&bytes[..more]) {
            *word = u64::from_le_bytes(*bytes);
            self.hash.word(*word);
        }
        self.left -= more;
        self.len += more;
        self.block[self.len] = 0;
        Ok(())
    }

    /// Reads the words left: the payload's checksum as read, and whether
    /// every bit after the last field read is zero.
    fn finish(mut self) -> io::Result<(u64, bool)> {
        // From the word being read through the zero word after the block.
        let rest = &self.block[self.bit / 64..=self.len];
        let mut zero = rest[0] >> (self.bit % 64) == 0 && rest[1..].iter().all(|&w| w == 0);
        while self.left > 0 {
            self.bit = 64 * self.len;
            self.fetch()?;
            zero &= self.block[..self.len].iter().all(|&w| w == 0);
        }
        Ok((self.hash.0, zero))
    }
}

/// Decodes ENTRIES into `rects`, each cell's records at that cell's
/// widths and each corner restored from its predictor: the first record
/// that is not a rectangle (the decode stops there).
fn read_records<R: BufRead>(
    meta: &[u64],
    words: &mut Words<'_, R>,
    rects: &mut Vec<Rect>,
) -> io::Result<Option<usize>> {
    for row in meta[META_HEADER_WORDS..].chunks_exact(META_CELL_WORDS) {
        let [wx, wy, ww, wh] = split_widths(row[6]);
        let mut prev_min_x = row[2];
        for _ in 0..row[1] {
            let min_x = restore(prev_min_x, words.read(wx)?);
            let min_y = restore(row[3], words.read(wy)?);
            let max_x = restore(min_x, words.read(ww)?);
            let max_y = restore(min_y, words.read(wh)?);
            prev_min_x = min_x;
            let [min_x, min_y, max_x, max_y] = [min_x, min_y, max_x, max_y].map(f64::from_bits);
            match Rect::from_bounds(min_x, min_y, max_x, max_y) {
                Some(rect) => rects.push(rect),
                None => return Ok(Some(rects.len())),
            }
        }
    }
    Ok(None)
}

/// Decodes `n` ids from IDS into `ids`: the first id out of range, and its
/// position.
fn read_ids<R: BufRead>(
    n: usize,
    words: &mut Words<'_, R>,
    ids: &mut Vec<u32>,
) -> io::Result<Option<(usize, u32)>> {
    let width = id_width(n as u64);
    let mut bad = None;
    for i in 0..n {
        // At most 32 bits: `n` fits a `u32`.
        let id = words.read(width)? as u32;
        if id as usize >= n && bad.is_none() {
            bad = Some((i, id));
        }
        ids.push(id);
    }
    Ok(bad)
}

/// What META declares about the records, checked before one is decoded.
struct Layout {
    grid: Grid,
    /// The record count.
    n: usize,
    /// The ENTRIES and IDS lengths, in words, that the widths and `n`
    /// imply.
    entry_words: u64,
    id_words: u64,
}

impl Layout {
    /// Checks META's structure: the header, the grid, the cell table's
    /// length and the scope, then a record count ids can hold, entry
    /// ranges that tile the records back to back, and widths of at most 64
    /// bits.
    fn parse(meta: &[u64], scope: Option<&Range<u32>>) -> Result<Self, StoreError> {
        if meta.len() < META_HEADER_WORDS {
            return Err(corrupt("META header is truncated"));
        }
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
        if let Some(r) = scope {
            if r.start > r.end || r.end as usize > num_cells {
                return Err(corrupt(format!(
                    "seed cell range {}..{} does not lie within the {num_cells}-cell grid",
                    r.start, r.end
                )));
            }
        }
        let n = meta[3];
        if n > u64::from(u32::MAX) {
            return Err(corrupt(format!("{n} records exceed the u32 id space")));
        }
        // The runs must tile the records back to back, which is what lets
        // a scoped open skip the uniqueness scan out of scope without
        // giving up coverage or disjointness.
        let (mut next, mut entry_bits) = (0, 0);
        for (c, row) in meta[META_HEADER_WORDS..]
            .chunks_exact(META_CELL_WORDS)
            .enumerate()
        {
            if row[0] != next || row[1] > n - next {
                return Err(corrupt(format!(
                    "cell {c}: entry range {}+{} does not continue at {next} within {n}",
                    row[0], row[1]
                )));
            }
            next += row[1];
            let widths = split_widths(row[6]);
            if row[6] >> 32 != 0 || widths.iter().any(|&w| w > 64) {
                return Err(corrupt(format!(
                    "cell {c}: widths word {:#x} is not four widths of at most 64 bits",
                    row[6]
                )));
            }
            // At most 2^32 records of 256 bits: no overflow.
            entry_bits += row[1] * u64::from(widths.iter().sum::<u32>());
        }
        if next != n {
            return Err(corrupt(format!("cell ranges cover {next} of {n} records")));
        }
        Ok(Self {
            grid,
            n: n as usize,
            entry_words: entry_bits.div_ceil(64),
            id_words: (n * u64::from(id_width(n))).div_ceil(64),
        })
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
    /// that do not tile the records, column widths over 64 bits, section
    /// lengths other than the widths and the record count imply (checked
    /// before the record arrays are sized), non-finite or inverted
    /// rectangles, a
    /// run out of `min_x` order, a record outside its cell's extent or
    /// homed at another cell, ids that are not a permutation of
    /// `0..record_count`, and non-zero padding after either packed
    /// section's last field.
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
    /// byte slice is its own, so the slice openers allocate no buffer.
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
        let mut words = stream.words(&meta_frame);
        for _ in 0..meta_frame.len {
            meta.push(words.read(64)?);
        }
        let (sum, _) = words.finish()?;
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
        // The records are decoded by META's cell rows, so its structure is
        // checked now and reported after the frames.
        let layout = Layout::parse(&meta, scope.as_ref());

        // The record arrays are reserved from META's count only when the
        // ENTRIES length is the one its widths imply and an IDS frame of
        // the length that count implies fits in what the image has left,
        // so nothing is sized beyond what the file's length bounds. The IDS
        // length is checked exactly when its frame is read.
        let entries = stream.frame("ENTRIES")?;
        let sized = layout.as_ref().ok().filter(|l| {
            l.entry_words == entries.len as u64
                && l.id_words + 2 <= stream.left - entries.len as u64
        });
        let mut rects = Vec::with_capacity(sized.map_or(0, |l| l.n));
        let mut words = stream.words(&entries);
        let bad_rect = match sized {
            Some(_) => read_records(&meta, &mut words, &mut rects)?,
            None => None,
        };
        let (sum, entry_padding_zero) = words.finish()?;
        entries.verify(sum)?;

        let id_words = stream.frame("IDS")?;
        let id_layout = sized.filter(|l| l.id_words == id_words.len as u64);
        let mut ids = Vec::with_capacity(id_layout.map_or(0, |l| l.n));
        let mut words = stream.words(&id_words);
        let bad_id = match id_layout {
            Some(l) => read_ids(l.n, &mut words, &mut ids)?,
            None => None,
        };
        let (sum, id_padding_zero) = words.finish()?;
        id_words.verify(sum)?;
        if stream.left != 0 {
            return Err(corrupt(format!("{} trailing words", stream.left)));
        }

        let Layout {
            grid,
            n,
            entry_words,
            id_words: want_ids,
        } = layout?;
        if entries.len as u64 != entry_words {
            return Err(corrupt(format!(
                "{} ENTRIES words for {n} records of the cell widths, not {entry_words}",
                entries.len
            )));
        }
        if id_words.len as u64 != want_ids {
            return Err(corrupt(format!(
                "{} IDS words for {n} records, not {want_ids}",
                id_words.len
            )));
        }
        if let Some(i) = bad_rect {
            return Err(corrupt(format!(
                "record {i}: non-finite or inverted rectangle"
            )));
        }
        if !entry_padding_zero {
            return Err(corrupt("entry padding is not zero"));
        }
        if !id_padding_zero {
            return Err(corrupt("id padding is not zero"));
        }
        if let Some((i, id)) = bad_id {
            return Err(corrupt(format!("record {i}: id {id} is out of range")));
        }
        debug_assert_eq!((rects.len(), ids.len()), (n, n));

        let num_cells = grid.num_cells() as usize;
        let mut cells = Vec::with_capacity(num_cells);
        let mut seen = vec![false; n];
        let mut sides = Sides::default();
        for (c, row) in meta[META_HEADER_WORDS..]
            .chunks_exact(META_CELL_WORDS)
            .enumerate()
        {
            // `Layout::parse` checked that the ranges tile the records.
            let entries = row[0] as usize..(row[0] + row[1]) as usize;
            let [min_x, min_y, max_x, max_y] = [2, 3, 4, 5].map(|k| f64::from_bits(row[k]));
            let extent = Rect::from_bounds(min_x, min_y, max_x, max_y)
                .ok_or_else(|| corrupt(format!("cell {c}: non-finite or inverted extent")))?;
            let run = &rects[entries.clone()];
            if !run.is_empty() && !grid.extent().contains_rect(&extent) {
                return Err(corrupt(format!("cell {c}: extent lies outside the grid")));
            }
            // One pass: containment, order, the run's lowest and highest
            // `max_y`, and the side statistic.
            let (mut inside, mut sorted) = (true, true);
            let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
            let mut prev = f64::NEG_INFINITY;
            for r in run {
                inside &= extent.contains_rect(r);
                sorted &= prev <= r.min_x();
                prev = r.min_x();
                (y_lo, y_hi) = (y_lo.min(r.max_y()), y_hi.max(r.max_y()));
                sides.add(r);
            }
            if !inside {
                let k = run.iter().position(|r| !extent.contains_rect(r));
                return Err(corrupt(format!(
                    "cell {c}: record {} lies outside the cell extent",
                    entries.start + k.expect("a record outside the extent")
                )));
            }
            if !sorted {
                return Err(corrupt(format!("cell {c}: run is not in ascending min_x")));
            }
            // Inside the extent, hence inside the grid: `cell_of` is defined.
            // `col_of_x` is monotone in `x` and `row_of_y` in `y`, so a
            // sorted run is homed at `c` exactly when its first and last
            // `min_x` fall in `c`'s column and its extreme `max_y` in `c`'s
            // row. Only a run that fails is scanned, to name its offender.
            let (col, row) = (grid.col_of(CellId(c as u32)), grid.row_of(CellId(c as u32)));
            let homed = match (run.first(), run.last()) {
                (Some(first), Some(last)) => {
                    grid.col_of_x(first.min_x()) == col
                        && grid.col_of_x(last.min_x()) == col
                        && grid.row_of_y(y_hi) == row
                        && grid.row_of_y(y_lo) == row
                }
                _ => true,
            };
            if !homed {
                let k = run.iter().position(|r| grid.cell_of(r).0 as usize != c);
                return Err(corrupt(format!(
                    "cell {c}: record {} is homed at another cell",
                    entries.start + k.expect("a record homed elsewhere")
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
        Ok(Self {
            fingerprint: meta[2],
            grid,
            cells,
            rects,
            ids,
            sides,
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

    /// The largest length ([`Rect::l`]) and breadth ([`Rect::b`]) of any
    /// record, `(0.0, 0.0)` when there is none: how far a body reaches
    /// right of and below its start point, so a gather knows which cells'
    /// runs, and which part of each run, can hold a record near a window.
    #[must_use]
    pub fn max_sides(&self) -> (f64, f64) {
        (self.sides.max_l, self.sides.max_b)
    }

    /// The side statistic, folded at open.
    #[must_use]
    pub fn sides(&self) -> Sides {
        self.sides
    }

    /// The `(rect, input_order_id)` at storage position `i` (cell by
    /// cell, each run in `min_x` order) — O(1) random access, for a map
    /// phase that reads the store in place.
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
        let sides = (rects.iter()).fold((0.0, 0.0), |(l, b), r| (r.l().max(l), r.b().max(b)));
        assert_eq!(store.max_sides(), sides);
    }

    #[test]
    fn cells_partition_the_relation_by_home_cell() {
        let grid = grid();
        for n in [300, 301] {
            let rects = random_rects(n, 11);
            let bytes = StoreBuilder::new(&grid).build(&rects).unwrap();
            let store = StoredDataset::from_bytes(&bytes).unwrap();
            // Three frames, the header, seven words a cell, each cell's
            // records at the smallest widths that hold their residuals and
            // nine bits of id: no tree, no widened field.
            let mut entry_bits = 0;
            for cell in grid.cells() {
                let (run, _) = store.cell(cell);
                let Some(extent) = store.cell_extent(cell) else {
                    continue;
                };
                let mut widths = [0; 4];
                let mut prev = extent.min_x();
                for r in run {
                    let pairs = [
                        (r.min_x(), prev),
                        (r.min_y(), extent.min_y()),
                        (r.max_x(), r.min_x()),
                        (r.max_y(), r.min_y()),
                    ];
                    for (w, (value, predictor)) in widths.iter_mut().zip(pairs) {
                        *w = (*w).max(bit_len(residual(value.to_bits(), predictor.to_bits())));
                    }
                    prev = r.min_x();
                }
                entry_bits += run.len() * widths.iter().sum::<u32>() as usize;
            }
            let words = 6
                + 11
                + 7 * grid.num_cells() as usize
                + entry_bits.div_ceil(64)
                + (9 * n).div_ceil(64);
            assert_eq!(bytes.len(), 8 * words);
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
        assert_eq!(store.max_sides(), (0.0, 0.0));
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
        let mut nan = Image::of(&bytes);
        nan.records[4_321][3] = f64::NAN.to_bits();
        file.rejected(&nan.seal(), "record 4321: non-finite or inverted rectangle");
    }

    /// The word-wise frame checksum of VERSIONs 3 and 4: a change here
    /// fails every store on disk, so it is a format version of its own.
    #[test]
    fn frame_checksum_is_pinned() {
        assert_eq!(frame_checksum(&[]), 0xf7e2_7bea_df41_96a5);
        assert_eq!(frame_checksum(&[MAGIC, 3]), 0x53bb_a78a_552d_c59a);
        assert_eq!(frame_checksum(&[0, 1, u64::MAX]), 0x9a94_5739_0852_9076);
    }

    /// A real VERSION 2 store: the VERSION 3 layout, sealed with the
    /// byte-wise FNV-64 over each frame's word count and payload that it
    /// used.
    #[test]
    fn a_version_2_store_is_refused_by_its_version() {
        let grid = grid();
        let bytes = StoreBuilder::new(&grid)
            .build(&random_rects(50, 31))
            .unwrap();
        let v2 = old_layout(&bytes, 2);
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

    /// A real VERSION 3 store, sealed with the checksum it shares with
    /// VERSION 4, is refused by its version, not read as packed fields.
    #[test]
    fn a_version_3_store_is_refused_by_its_version() {
        let grid = grid();
        let bytes = StoreBuilder::new(&grid)
            .build(&random_rects(50, 31))
            .unwrap();
        let v3 = old_layout(&bytes, 3);
        // The old layout's own size: six META words a cell, four corner
        // words a record, two ids a word.
        let words: usize = v3.iter().map(|s| 2 + s.len()).sum();
        assert_eq!(words, 6 + 11 + 6 * grid.num_cells() as usize + 4 * 50 + 25);
        ScratchFile::new("version-3").rejected(&seal(&v3), "unsupported format version 3");
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

    /// The VERSION 3 layout of a store's records (a raw word per corner,
    /// two ids a word low half first, six META words a cell), under the
    /// version word `version`: what that format's encoder wrote.
    fn old_layout(bytes: &[u8], version: u64) -> [Vec<u64>; 3] {
        let image = Image::of(bytes);
        let mut meta = image.meta[..META_HEADER_WORDS].to_vec();
        meta[1] = version;
        for row in image.meta[META_HEADER_WORDS..].chunks_exact(META_CELL_WORDS) {
            meta.extend(&row[..6]);
        }
        let ids = (image.ids.chunks(2))
            .map(|pair| u64::from(pair[0]) | pair.get(1).map_or(0, |&id| u64::from(id) << 32))
            .collect();
        [meta, image.records.concat(), ids]
    }

    /// A store's content as the encoder takes it: META, each record's
    /// corner bit patterns and the ids, in storage order. Edited and
    /// sealed again, it is a well-packed image that only a structural
    /// check can reject.
    #[derive(Clone)]
    struct Image {
        meta: Vec<u64>,
        records: Vec<[u64; 4]>,
        ids: Vec<u32>,
    }

    impl Image {
        fn of(bytes: &[u8]) -> Self {
            let store = StoredDataset::from_bytes(bytes).unwrap();
            let [meta, _, _] = sections(bytes);
            Self {
                meta,
                records: store
                    .iter()
                    .map(|(r, _)| r.bounds().map(f64::to_bits))
                    .collect(),
                ids: store.iter().map(|(_, id)| id).collect(),
            }
        }

        /// The three sections, packed by the store's own encoder, which
        /// writes each cell's widths afresh.
        fn sections(&self) -> [Vec<u64>; 3] {
            let mut meta = self.meta.clone();
            let [entries, ids] = pack(&mut meta, &self.records, &self.ids);
            [meta, entries, ids]
        }

        fn seal(&self) -> Vec<u8> {
            seal(&self.sections())
        }
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
        let image = Image::of(&bytes);
        let [meta, entries, ids] = sections(&bytes);
        assert_eq!(image.seal(), bytes);
        let cell_word = |c: usize, k: usize| META_HEADER_WORDS + c * META_CELL_WORDS + k;
        let file = ScratchFile::new("resealed");

        // A VERSION 1 file: these records in the old layout under the old
        // version word, and the exact V1 image of an empty relation (eight
        // META words a cell, then empty ENTRIES and NODES).
        file.rejected(
            &seal(&old_layout(&bytes, 1)),
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

        // A cell table that disagrees with the declared count: one record
        // more in META than its cells hold, a count no `u32` id can number,
        // and a cell that starts one record late.
        let mut more = meta.clone();
        more[3] += 1;
        file.rejected(
            &seal(&[more, entries.clone(), ids.clone()]),
            &format!("cell ranges cover {n} of {} records", n + 1),
        );
        let mut huge = meta.clone();
        huge[3] = 1 << 32;
        file.rejected(
            &seal(&[huge, entries.clone(), ids.clone()]),
            "4294967296 records exceed the u32 id space",
        );
        let mut late = meta.clone();
        late[cell_word(1, 0)] += 1;
        file.rejected(
            &seal(&[late, entries.clone(), ids.clone()]),
            "cell 1: entry range",
        );

        // Widths no field can have: 65 bits, and a fifth width byte.
        for (word, shown) in [(65, "0x41"), (1 << 32, "0x100000000")] {
            let mut wide = meta.clone();
            wide[cell_word(2, 6)] = word;
            file.rejected(
                &seal(&[wide, entries.clone(), ids.clone()]),
                &format!("cell 2: widths word {shown} is not four widths"),
            );
        }

        // Section lengths that disagree with the widths and the count: one
        // ENTRIES word too many, one IDS word too many or too few.
        let mut long_entries = entries.clone();
        long_entries.push(0);
        file.rejected(
            &seal(&[meta.clone(), long_entries, ids.clone()]),
            &format!("{} ENTRIES words for {n} records", entries.len() + 1),
        );
        let mut long_ids = ids.clone();
        long_ids.push(0);
        file.rejected(
            &seal(&[meta.clone(), entries.clone(), long_ids]),
            &format!("{} IDS words for {n} records", ids.len() + 1),
        );
        file.rejected(
            &seal(&[meta.clone(), entries.clone(), ids[1..].to_vec()]),
            &format!("{} IDS words for {n} records", ids.len() - 1),
        );

        // Record defects found while streaming, reported after every
        // structural check: a NaN corner, then non-zero padding, then an id
        // out of range (201 still fits the 8-bit id field).
        let mut nan = image.clone();
        nan.records[7][2] = f64::NAN.to_bits();
        file.rejected(&nan.seal(), "record 7: non-finite or inverted rectangle");
        let mut out_of_range = image.clone();
        out_of_range.ids[3] = n as u32;
        file.rejected(
            &out_of_range.seal(),
            &format!("record 3: id {n} is out of range"),
        );
        let [m, e, mut i] = out_of_range.sections();
        *i.last_mut().unwrap() |= 1 << 63;
        file.rejected(&seal(&[m, e, i.clone()]), "id padding is not zero");
        nan.ids = out_of_range.ids;
        let [m, e, _] = nan.sections();
        file.rejected(&seal(&[m, e, i]), "record 7: non-finite");

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
        let mut swapped = image.clone();
        swapped.records.swap(i, i + 1);
        swapped.ids.swap(i, i + 1);
        file.rejected(
            &swapped.seal(),
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
        let mut narrow = image.clone();
        narrow.meta[cell_word(c, 4)] = f64::from_bits(narrow.meta[cell_word(c, 4)])
            .next_down()
            .to_bits();
        file.rejected(&narrow.seal(), "lies outside the cell extent");

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
        let mut moved = image.clone();
        moved.meta[cell_word(c, 1)] -= 1;
        moved.meta[cell_word(c + 1, 0)] -= 1;
        moved.meta[cell_word(c + 1, 1)] += 1;
        for (k, bound) in grid.extent().bounds().into_iter().enumerate() {
            moved.meta[cell_word(c + 1, 2 + k)] = bound.to_bits();
        }
        file.rejected(
            &moved.seal(),
            &format!(
                "cell {}: record {} is homed at another cell",
                c + 1,
                store.cells[c].entries.end - 1
            ),
        );

        // A record in the middle of a run homed at another cell: its
        // `max_y` moved into the row above, under an extent grown to the
        // whole grid. The run's first and last records still fall in its
        // column, so only its highest `max_y` betrays it.
        let c = (0..store.cells.len())
            .find(|&c| c >= grid.cols() as usize && store.cells[c].entries.len() >= 3)
            .expect("a run of three below the top row");
        let k = store.cells[c].entries.start + store.cells[c].entries.len() / 2;
        let above = grid.cell_rect(CellId((c - grid.cols() as usize) as u32));
        let mut raised = image.clone();
        raised.records[k][3] = ((above.min_y() + above.max_y()) / 2.0).to_bits();
        for (w, bound) in grid.extent().bounds().into_iter().enumerate() {
            raised.meta[cell_word(c, 2 + w)] = bound.to_bits();
        }
        file.rejected(
            &raised.seal(),
            &format!("cell {c}: record {k} is homed at another cell"),
        );

        // A duplicated id: the second record takes the first one's.
        let mut duplicated = image;
        duplicated.ids[1] = duplicated.ids[0];
        file.rejected(&duplicated.seal(), "is duplicated");
    }

    /// Every bit after a packed section's last field must be zero: each
    /// padding bit of ENTRIES and of IDS, set alone, rejects the image.
    #[test]
    fn non_zero_padding_is_rejected() {
        let grid = grid();
        let file = ScratchFile::new("padding");
        let mut padded = [0; 2];
        for (n, seed) in [(201, 5), (37, 6), (1, 7), (2, 8)] {
            let bytes = StoreBuilder::new(&grid)
                .build(&random_rects(n, seed))
                .unwrap();
            let [meta, entries, ids] = sections(&bytes);
            let entry_bits: u64 = (meta[META_HEADER_WORDS..].chunks_exact(META_CELL_WORDS))
                .map(|row| row[1] * u64::from(split_widths(row[6]).iter().sum::<u32>()))
                .sum();
            let id_bits = n as u64 * u64::from(id_width(n as u64));
            for (k, (section, used, why)) in [
                (&entries, entry_bits, "entry padding is not zero"),
                (&ids, id_bits, "id padding is not zero"),
            ]
            .into_iter()
            .enumerate()
            {
                assert_eq!(section.len() as u64, used.div_ceil(64));
                // The last word's bits after the last field, if it has any.
                let padding = match used % 64 {
                    0 => 0..0,
                    first => first..64,
                };
                for bit in padding {
                    let mut bad = [meta.clone(), entries.clone(), ids.clone()];
                    *bad[k + 1].last_mut().unwrap() |= 1 << bit;
                    file.rejected(&seal(&bad), why);
                    padded[k] += 1;
                }
            }
        }
        assert!(padded.iter().all(|&bits| bits > 0), "{padded:?}");
    }

    /// A META that claims more records than the IDS frame can hold is
    /// refused by its lengths: each record of a cell of points takes no
    /// ENTRIES bit, so only the IDS length bounds the count.
    /// (`tests/open_footprint.rs` checks that nothing is reserved for it.)
    #[test]
    fn a_count_the_ids_cannot_hold_is_refused() {
        let grid = grid();
        let points = vec![Rect::new(10.0, 990.0, 0.0, 0.0); 1_000];
        let bytes = StoreBuilder::new(&grid).build(&points).unwrap();
        let [mut meta, entries, ids] = sections(&bytes);
        assert_eq!(
            (entries.len(), ids.len()),
            (0, (1_000 * 10usize).div_ceil(64))
        );
        let claimed = 1u64 << 24;
        meta[3] = claimed;
        for row in meta[META_HEADER_WORDS..].chunks_exact_mut(META_CELL_WORDS) {
            if row[1] > 0 {
                row[1] += claimed - 1_000;
            } else if row[0] > 0 {
                row[0] = claimed;
            }
        }
        ScratchFile::new("inflated").rejected(
            &seal(&[meta, entries, ids]),
            &format!("157 IDS words for {claimed} records"),
        );
    }

    /// The format's edges round-trip bit for bit: the id width at `n` of
    /// 0, 1, 2, 2^k and 2^k + 1 (exact file sizes), and cells whose columns
    /// take no bits or all 64.
    #[test]
    fn format_edges_round_trip() {
        let grid = grid();
        let cells = grid.num_cells() as usize;
        for n in [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 256, 257, 1_024, 1_025] {
            let rects = random_rects(n, n as u64);
            let bytes = StoreBuilder::new(&grid).build(&rects).unwrap();
            let [meta, entries, ids] = sections(&bytes);
            let w_id = match n {
                0 | 1 => 0,
                n => usize::BITS - (n - 1).leading_zeros(),
            };
            assert_eq!(ids.len(), (n * w_id as usize).div_ceil(64), "n = {n}");
            assert_eq!(
                bytes.len(),
                8 * (6 + 11 + 7 * cells + entries.len() + ids.len())
            );
            assert_eq!(meta.len(), 11 + 7 * cells);
            assert_bit_exact(&StoredDataset::from_bytes(&bytes).unwrap(), &rects);
        }

        // Points, identical or not: a cell of one point repeated takes no
        // ENTRIES bit at all.
        let same = vec![Rect::new(600.0, 100.0, 0.0, 0.0); 7];
        let bytes = StoreBuilder::new(&grid).build(&same).unwrap();
        assert_eq!(sections(&bytes)[1], Vec::<u64>::new());
        assert_bit_exact(&StoredDataset::from_bytes(&bytes).unwrap(), &same);

        // A grid across the origin: a record from -1 to 1 has a `max_x`
        // residual of 64 bits, and -0.0 beside 0.0 keeps its sign.
        let grid = Grid::square((-1000.0, 1000.0), (-1000.0, 1000.0), 4);
        let rects = [
            Rect::from_bounds(-1.0, -3.0, 1.0, -2.0).unwrap(),
            Rect::from_bounds(-0.0, 5e-324, 0.0, 5e-324).unwrap(),
            Rect::from_bounds(0.0, -0.0, 0.0, 0.0).unwrap(),
            Rect::from_bounds(-5e-324, -1e-310, 5e-324, -0.0).unwrap(),
        ];
        let bytes = StoreBuilder::new(&grid).build(&rects).unwrap();
        let [meta, _, _] = sections(&bytes);
        let widths: Vec<[u32; 4]> = (meta[META_HEADER_WORDS..].chunks_exact(META_CELL_WORDS))
            .map(|row| split_widths(row[6]))
            .collect();
        assert!(widths.iter().flatten().any(|&w| w == 64), "{widths:?}");
        assert_bit_exact(&StoredDataset::from_bytes(&bytes).unwrap(), &rects);
    }

    /// Every record of `rects` comes back with each corner's bit pattern
    /// and its id.
    fn assert_bit_exact(store: &StoredDataset, rects: &[Rect]) {
        let bits = |r: &Rect| r.bounds().map(f64::to_bits);
        assert_eq!(store.record_count(), rects.len() as u64);
        assert_eq!(store.fingerprint(), dataset_fingerprint(rects));
        let mut ids: Vec<u32> = store.iter().map(|(_, id)| id).collect();
        for (rect, id) in store.iter() {
            assert_eq!(bits(&rect), bits(&rects[id as usize]), "record {id}");
        }
        ids.sort_unstable();
        assert!(ids.iter().copied().eq(0..rects.len() as u32));
    }

    /// A coordinate that stresses the residuals: either zero, subnormals of
    /// both signs, the smallest normal, or anything on the grid.
    fn coordinate() -> impl Strategy<Value = f64> {
        (0u32..8, -1.0..1.0f64, -900.0..900.0f64).prop_map(|(pick, near, far)| match pick {
            0 => 0.0,
            1 => -0.0,
            2 => 5e-324,
            3 => -5e-324,
            4 => -1e-310,
            5 => f64::MIN_POSITIVE,
            6 => near,
            _ => far,
        })
    }

    /// A side length: none, a subnormal, or anything up to 90.
    fn side() -> impl Strategy<Value = f64> {
        (0u32..3, 0.0..90.0f64).prop_map(|(pick, any)| [0.0, 5e-324, any][pick as usize])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Format 4 round-trips records of any sign, signed zeros and
        /// subnormals, on a grid across the origin, bit for bit; repeats
        /// drawn from the few fixed values give zero-width columns.
        #[test]
        fn prop_packed_fields_round_trip_bit_for_bit(
            raw in proptest::collection::vec((coordinate(), coordinate(), side(), side()), 0..150)
        ) {
            let grid = Grid::square((-1000.0, 1000.0), (-1000.0, 1000.0), 4);
            let rects: Vec<Rect> = raw
                .iter()
                .map(|&(x, y, l, b)| Rect::from_bounds(x, y, x + l, y + b).unwrap())
                .collect();
            let bytes = StoreBuilder::new(&grid).build(&rects).unwrap();
            assert_bit_exact(&StoredDataset::from_bytes(&bytes).unwrap(), &rects);
        }
    }
}
