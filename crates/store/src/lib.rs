//! Persistent cell-partitioned dataset store.
//!
//! `mwsj ingest` pre-partitions a relation by the same uniform grid the
//! cluster joins on and serializes one STR-packed R-tree per cell in the
//! exact leaf-pack word layout of [`mwsj_rtree::PackedRTree`]. Opening a
//! stored dataset is a single `fs::read` plus one validation scan — no
//! per-rectangle parsing, no tree rebuilding — which is what makes the
//! shuffle-free map-side join pay: the "index build" cost moves to ingest
//! time and query time only pays for traversal.
//!
//! # File layout
//!
//! Everything is little-endian `u64` words. Three sections, each preceded
//! by a `RunFrame`-style frame of two words — `len` (payload words) and an
//! FNV-64 checksum over `len` followed by every payload word:
//!
//! ```text
//! [frame] META    magic, version, fingerprint, record_count,
//!                 x0, xn, y0, yn (f64 bits), cols, rows, num_cells,
//!                 then per cell: entry_start, entry_count,
//!                                node_start, node_count,
//!                                extent min_x, min_y, max_x, max_y (bits)
//! [frame] ENTRIES concatenated per-cell packed entry words (5 per entry)
//! [frame] NODES   concatenated per-cell packed node words (6 per node)
//! ```
//!
//! The grid ranges are the *constructor* values (via [`Grid::x_range`] /
//! [`Grid::y_range`]), so the grid round-trips bit-exactly. The
//! fingerprint is computed over the `(x, y, l, b)` quadruples of the input
//! rectangles in input order with the same [`StableHash`] recipe the
//! server's DFS uses, so a stored dataset and the equivalent in-memory
//! dataset share a cache key.
//!
//! [`StableHash`]: mwsj_mapreduce::StableHash

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use mwsj_geom::Rect;
use mwsj_mapreduce::Fnv64;
use mwsj_partition::{CellId, Grid};
use mwsj_rtree::packed::{ENTRY_WORDS, NODE_WORDS};
use mwsj_rtree::{PackedRTree, RTree};

/// `"MWSJSTOR"` in ASCII, read as a big-endian integer.
pub const MAGIC: u64 = 0x4D57_534A_5354_4F52;

/// Current (and only) format version.
pub const VERSION: u64 = 1;

/// Fixed META words before the per-cell table.
const META_HEADER_WORDS: usize = 11;

/// META words per cell: index ranges plus the cell extent.
const META_CELL_WORDS: usize = 8;

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

/// The DFS-compatible fingerprint of a relation: FNV-64 over the record
/// count followed by each rectangle's `(x, y, l, b)` quadruple as IEEE
/// bit patterns, in input order. Byte-identical to what
/// `Dfs::write("…", vec![(x, y, l, b), …])` computes, so the server's
/// result-cache key does not change when a dataset moves into the store.
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

fn frame_checksum(words: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(words.len() as u64);
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

fn push_framed(out: &mut Vec<u64>, section: &[u64]) {
    out.push(section.len() as u64);
    out.push(frame_checksum(section));
    out.extend_from_slice(section);
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
    /// point), assigned its input-order index as payload, and indexed in a
    /// per-cell STR bulk-loaded R-tree.
    ///
    /// # Errors
    /// Rejects relations larger than `u32::MAX` records or containing a
    /// rectangle whose start point lies outside the grid extent.
    pub fn build(&self, rects: &[Rect]) -> Result<Vec<u8>, StoreError> {
        if rects.len() > u32::MAX as usize {
            return Err(StoreError::Ingest(format!(
                "{} records exceed the u32 payload space",
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

        let mut entry_words: Vec<u64> = Vec::with_capacity(rects.len() * ENTRY_WORDS);
        let mut node_words: Vec<u64> = Vec::new();
        for members in per_cell {
            let extent = members
                .iter()
                .map(|(r, _)| *r)
                .reduce(|a, b| a.union(&b))
                .unwrap_or(Rect::new(0.0, 0.0, 0.0, 0.0));
            let tree = RTree::bulk_load(members);
            let (entries, nodes) = tree.words();
            meta.push((entry_words.len() / ENTRY_WORDS) as u64);
            meta.push((entries.len() / ENTRY_WORDS) as u64);
            meta.push((node_words.len() / NODE_WORDS) as u64);
            meta.push((nodes.len() / NODE_WORDS) as u64);
            meta.extend(extent.bounds().map(f64::to_bits));
            entry_words.extend_from_slice(entries);
            node_words.extend_from_slice(nodes);
        }

        let mut words = Vec::with_capacity(6 + meta.len() + entry_words.len() + node_words.len());
        push_framed(&mut words, &meta);
        push_framed(&mut words, &entry_words);
        push_framed(&mut words, &node_words);

        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
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

/// Per-cell index ranges, in entry/node units within the global arrays.
#[derive(Debug, Clone, Copy)]
struct CellMeta {
    entry_start: usize,
    entry_count: usize,
    node_start: usize,
    node_count: usize,
    extent: Rect,
}

/// An opened, fully validated stored dataset.
///
/// All structural validation happens once in [`StoredDataset::from_bytes`];
/// afterwards every accessor is infallible.
#[derive(Debug)]
pub struct StoredDataset {
    fingerprint: u64,
    record_count: u64,
    grid: Grid,
    cells: Vec<CellMeta>,
    entries: Vec<u64>,
    nodes: Vec<u64>,
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// Splits `words` at a section frame, verifying length and checksum.
fn take_section<'a>(words: &mut &'a [u64], what: &str) -> Result<&'a [u64], StoreError> {
    let [len, checksum, rest @ ..] = words else {
        return Err(corrupt(format!("truncated before the {what} frame")));
    };
    let len = usize::try_from(*len)
        .ok()
        .filter(|&n| n <= rest.len())
        .ok_or_else(|| corrupt(format!("{what} frame length {len} exceeds the file")))?;
    let (section, rest) = rest.split_at(len);
    if frame_checksum(section) != *checksum {
        return Err(corrupt(format!("{what} section failed its checksum")));
    }
    *words = rest;
    Ok(section)
}

impl StoredDataset {
    /// Reads and validates a stored dataset from `path`.
    ///
    /// # Errors
    /// Filesystem failures and every defect [`StoredDataset::from_bytes`]
    /// detects.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Self::from_bytes(&fs::read(path)?)
    }

    /// Validates serialized bytes and takes ownership of the word arrays.
    ///
    /// # Errors
    /// Rejects bad magic/version, truncated or checksum-failing sections,
    /// inconsistent grid geometry, out-of-bounds cell ranges, payloads that
    /// are not a permutation of `0..record_count`, and any per-cell tree
    /// that [`PackedRTree::new`] rejects.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::from_bytes_impl(bytes, None)
    }

    /// Like [`StoredDataset::from_bytes`], but restricts the O(records)
    /// payload-permutation scan to the cells in `seed_cells`.
    ///
    /// This is the open for a shard that holds a copy of its own: it seeds
    /// joins only from its own cell range, so only those cells' payload
    /// ids need the full uniqueness scan. (The serving tier's in-process
    /// shards share one fully validated mount instead.) Every other
    /// integrity property still holds
    /// globally — section checksums cover every byte, every cell tree
    /// is structurally validated (probes traverse all of them), and a
    /// contiguity check on the per-cell index ranges guarantees the
    /// cells tile the entry/node arrays without gaps or overlap.
    /// Out-of-scope payload *ids* are trusted (they are still
    /// checksummed, just not cross-checked for global uniqueness), so
    /// prefer [`StoredDataset::from_bytes`] when the open is not
    /// range-scoped.
    ///
    /// # Errors
    /// Everything [`StoredDataset::from_bytes`] rejects (minus
    /// out-of-scope payload defects), plus a `seed_cells` range that
    /// does not lie within the grid.
    pub fn from_bytes_scoped(
        bytes: &[u8],
        seed_cells: std::ops::Range<u32>,
    ) -> Result<Self, StoreError> {
        Self::from_bytes_impl(bytes, Some(seed_cells))
    }

    fn from_bytes_impl(
        bytes: &[u8],
        scope: Option<std::ops::Range<u32>>,
    ) -> Result<Self, StoreError> {
        if !bytes.len().is_multiple_of(8) {
            return Err(corrupt(format!(
                "file size {} is not a whole number of words",
                bytes.len()
            )));
        }
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        let mut rest = words.as_slice();
        let meta = take_section(&mut rest, "META")?;
        let entries = take_section(&mut rest, "ENTRIES")?.to_vec();
        let nodes = take_section(&mut rest, "NODES")?.to_vec();
        if !rest.is_empty() {
            return Err(corrupt(format!("{} trailing words", rest.len())));
        }

        if meta.len() < META_HEADER_WORDS {
            return Err(corrupt("META header is truncated"));
        }
        if meta[0] != MAGIC {
            return Err(corrupt("bad magic: not a dataset store"));
        }
        if meta[1] != VERSION {
            return Err(corrupt(format!("unsupported format version {}", meta[1])));
        }
        let fingerprint = meta[2];
        let record_count = meta[3];
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

        let total_entries = entries.len() / ENTRY_WORDS;
        let total_nodes = nodes.len() / NODE_WORDS;
        let mut cells = Vec::with_capacity(num_cells);
        let mut seen = vec![false; total_entries];
        // Running offsets for the contiguity check: the builder lays the
        // cells' entry/node ranges out back to back, so the ranges must
        // tile the arrays exactly — which is what lets a scoped open
        // skip the per-payload scan for out-of-scope cells without
        // giving up coverage or disjointness.
        let mut next_entry = 0usize;
        let mut next_node = 0usize;
        let as_range = |start: u64, count: u64, total: usize, what: &str, c: usize| {
            let start = usize::try_from(start).map_err(|_| corrupt("range overflow"))?;
            let count = usize::try_from(count).map_err(|_| corrupt("range overflow"))?;
            if start.checked_add(count).is_none_or(|end| end > total) {
                return Err(corrupt(format!(
                    "cell {c}: {what} range {start}+{count} exceeds {total}"
                )));
            }
            Ok((start, count))
        };
        for c in 0..num_cells {
            let base = META_HEADER_WORDS + c * META_CELL_WORDS;
            let (entry_start, entry_count) =
                as_range(meta[base], meta[base + 1], total_entries, "entry", c)?;
            let (node_start, node_count) =
                as_range(meta[base + 2], meta[base + 3], total_nodes, "node", c)?;
            let extent = Rect::from_bounds(
                f64::from_bits(meta[base + 4]),
                f64::from_bits(meta[base + 5]),
                f64::from_bits(meta[base + 6]),
                f64::from_bits(meta[base + 7]),
            )
            .ok_or_else(|| corrupt(format!("cell {c}: non-finite or inverted extent")))?;
            let cell = CellMeta {
                entry_start,
                entry_count,
                node_start,
                node_count,
                extent,
            };
            if entry_start != next_entry || node_start != next_node {
                return Err(corrupt(format!(
                    "cell {c}: index ranges are not laid out contiguously"
                )));
            }
            next_entry += entry_count;
            next_node += node_count;
            // Validates word structure, node kinds, ranges and rectangles.
            let tree = cell_tree_of(&entries, &nodes, &cell)
                .map_err(|e| corrupt(format!("cell {c}: {e}")))?;
            let in_scope = scope
                .as_ref()
                .is_none_or(|r| (c as u64) >= u64::from(r.start) && (c as u64) < u64::from(r.end));
            if in_scope {
                for (_, id) in tree.iter() {
                    let id = id as usize;
                    if id as u64 >= record_count || seen[id] {
                        return Err(corrupt(format!(
                            "cell {c}: payload {id} is out of range or duplicated"
                        )));
                    }
                    seen[id] = true;
                }
            }
            cells.push(cell);
        }
        if next_entry != total_entries || next_node != total_nodes {
            return Err(corrupt(
                "cell index ranges do not cover the entry/node arrays",
            ));
        }
        if total_entries as u64 != record_count {
            return Err(corrupt(format!(
                "{total_entries} indexed entries for {record_count} records"
            )));
        }
        Ok(Self {
            fingerprint,
            record_count,
            grid,
            cells,
            entries,
            nodes,
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
        self.record_count
    }

    /// The partitioning grid, reconstructed bit-exactly.
    #[must_use]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The packed R-tree over the records homed at `cell`.
    ///
    /// # Panics
    /// Panics when `cell` is out of range for the grid.
    #[must_use]
    pub fn cell_tree(&self, cell: CellId) -> PackedRTree<'_> {
        let meta = &self.cells[cell.0 as usize];
        cell_tree_of(&self.entries, &self.nodes, meta).expect("validated at open")
    }

    /// The union extent of the records homed at `cell`; `None` when the
    /// cell is empty.
    #[must_use]
    pub fn cell_extent(&self, cell: CellId) -> Option<Rect> {
        let meta = &self.cells[cell.0 as usize];
        (meta.entry_count > 0).then_some(meta.extent)
    }

    /// The rectangle of global entry `i` in storage (leaf-pack) order —
    /// O(1) random access for sampling without materializing.
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    #[must_use]
    pub fn nth_rect(&self, i: usize) -> Rect {
        let base = i * ENTRY_WORDS;
        Rect::from_bounds(
            f64::from_bits(self.entries[base]),
            f64::from_bits(self.entries[base + 1]),
            f64::from_bits(self.entries[base + 2]),
            f64::from_bits(self.entries[base + 3]),
        )
        .expect("validated at open")
    }

    /// Iterates over every `(rect, input_order_id)` in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (Rect, u32)> + '_ {
        (0..self.record_count as usize).map(|i| {
            let base = i * ENTRY_WORDS;
            (self.nth_rect(i), self.entries[base + 4] as u32)
        })
    }

    /// Reconstructs the relation in original input order — the fallback
    /// for algorithms that need materialized inputs. Corner coordinates
    /// are bit-exact to the ingested rectangles.
    #[must_use]
    pub fn materialize(&self) -> Vec<Rect> {
        let mut out = vec![Rect::new(0.0, 0.0, 0.0, 0.0); self.record_count as usize];
        for cell in &self.cells {
            let tree = cell_tree_of(&self.entries, &self.nodes, cell).expect("validated at open");
            for (rect, id) in tree.iter() {
                out[id as usize] = rect;
            }
        }
        out
    }
}

fn cell_tree_of<'a>(
    entries: &'a [u64],
    nodes: &'a [u64],
    cell: &CellMeta,
) -> Result<PackedRTree<'a>, String> {
    let e = cell.entry_start * ENTRY_WORDS..(cell.entry_start + cell.entry_count) * ENTRY_WORDS;
    let n = cell.node_start * NODE_WORDS..(cell.node_start + cell.node_count) * NODE_WORDS;
    PackedRTree::new(&entries[e], &nodes[n])
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
        let rects = random_rects(300, 11);
        let bytes = StoreBuilder::new(&grid).build(&rects).unwrap();
        let store = StoredDataset::from_bytes(&bytes).unwrap();
        let mut total = 0;
        for cell in grid.cells() {
            let tree = store.cell_tree(cell);
            total += tree.len();
            for (rect, id) in tree.iter() {
                assert_eq!(grid.cell_of(&rect), cell);
                assert_eq!(rects[id as usize], rect);
                let extent = store.cell_extent(cell).unwrap();
                assert!(extent.contains_rect(&rect));
            }
        }
        assert_eq!(total, rects.len());
    }

    #[test]
    fn empty_relation_round_trips() {
        let grid = grid();
        let bytes = StoreBuilder::new(&grid).build(&[]).unwrap();
        let store = StoredDataset::from_bytes(&bytes).unwrap();
        assert_eq!(store.record_count(), 0);
        assert!(store.materialize().is_empty());
        for cell in grid.cells() {
            assert!(store.cell_tree(cell).is_empty());
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
        fn prop_round_trip_matches_the_dfs_recipe(
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

            // Ingest -> open preserves the records bit-for-bit...
            prop_assert_eq!(store.record_count(), rects.len() as u64);
            prop_assert_eq!(store.materialize(), rects.clone());

            // ...and the fingerprint is exactly what `Dfs::write` seals
            // for the materialized twin, so the server's result-cache key
            // does not depend on whether a binding came from the store.
            let dfs = mwsj_mapreduce::Dfs::new();
            let records: Vec<(f64, f64, f64, f64)> =
                rects.iter().map(|r| (r.x(), r.y(), r.l(), r.b())).collect();
            dfs.write("r", records);
            prop_assert_eq!(store.fingerprint(), dfs.fingerprint("r").unwrap().0);
        }
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
                // Every cell tree — in scope or not — is identical to
                // the full open's view; probes traverse all of them.
                let a: Vec<_> = scoped.cell_tree(cell).iter().collect();
                let b: Vec<_> = full.cell_tree(cell).iter().collect();
                assert_eq!(a, b, "cell {cell:?} under scope {range:?}");
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
        let at = bad.len() - 64;
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

    #[test]
    fn every_corrupted_word_is_detected() {
        let grid = grid();
        let rects = random_rects(200, 3);
        let bytes = StoreBuilder::new(&grid).build(&rects).unwrap();
        assert!(StoredDataset::from_bytes(&bytes).is_ok());

        // Truncations at every section boundary.
        for cut in [0, 8, 80, bytes.len() / 2, bytes.len() - 8] {
            assert!(
                StoredDataset::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        // Odd byte length.
        assert!(StoredDataset::from_bytes(&bytes[..bytes.len() - 3]).is_err());

        // Flip one bit in every word: either a frame checksum fires or
        // (for the frame words themselves) structural validation does.
        let words = bytes.len() / 8;
        let mut rng = StdRng::seed_from_u64(99);
        for w in 0..words {
            let mut bad = bytes.clone();
            let bit = rng.random_range(0..64u32);
            let byte = w * 8 + (bit / 8) as usize;
            bad[byte] ^= 1 << (bit % 8);
            assert!(
                StoredDataset::from_bytes(&bad).is_err(),
                "flipped bit {bit} of word {w} went undetected"
            );
        }
    }
}
