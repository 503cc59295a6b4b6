/// Serialized-size accounting for shuffle and DFS byte metrics.
///
/// The engine never actually serializes records (everything stays in
/// memory), but the paper's communication-cost arguments are about bytes on
/// the wire and on HDFS, so every key, value and stored record reports the
/// size it *would* occupy in a compact binary encoding.
///
/// A shuffled value may be a reference into its job's immutable input —
/// an index the reducer resolves against the same input — rather than a
/// copy of a record. It reports the encoded size of the record it names,
/// so shuffle bytes and run frames are those of shipping that record.
pub trait RecordSize {
    /// The record's encoded size in bytes.
    fn size_bytes(&self) -> usize;
}

macro_rules! impl_fixed {
    ($($t:ty),*) => {
        $(impl RecordSize for $t {
            fn size_bytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        })*
    };
}

impl_fixed!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char);

impl RecordSize for String {
    fn size_bytes(&self) -> usize {
        // 4-byte length prefix + UTF-8 payload.
        4 + self.len()
    }
}

impl RecordSize for &str {
    fn size_bytes(&self) -> usize {
        4 + self.len()
    }
}

impl RecordSize for () {
    fn size_bytes(&self) -> usize {
        0
    }
}

impl<T: RecordSize> RecordSize for Option<T> {
    fn size_bytes(&self) -> usize {
        1 + self.as_ref().map_or(0, RecordSize::size_bytes)
    }
}

impl<T: RecordSize> RecordSize for Vec<T> {
    fn size_bytes(&self) -> usize {
        4 + self.iter().map(RecordSize::size_bytes).sum::<usize>()
    }
}

impl<T: RecordSize> RecordSize for Box<T> {
    fn size_bytes(&self) -> usize {
        self.as_ref().size_bytes()
    }
}

impl<A: RecordSize, B: RecordSize> RecordSize for (A, B) {
    fn size_bytes(&self) -> usize {
        self.0.size_bytes() + self.1.size_bytes()
    }
}

impl<A: RecordSize, B: RecordSize, C: RecordSize> RecordSize for (A, B, C) {
    fn size_bytes(&self) -> usize {
        self.0.size_bytes() + self.1.size_bytes() + self.2.size_bytes()
    }
}

impl<A: RecordSize, B: RecordSize, C: RecordSize, D: RecordSize> RecordSize for (A, B, C, D) {
    fn size_bytes(&self) -> usize {
        self.0.size_bytes() + self.1.size_bytes() + self.2.size_bytes() + self.3.size_bytes()
    }
}

impl<T: RecordSize, const N: usize> RecordSize for [T; N] {
    fn size_bytes(&self) -> usize {
        self.iter().map(RecordSize::size_bytes).sum()
    }
}

/// Incremental [FNV-1a] 64-bit hasher for integrity frames and dataset
/// fingerprints.
///
/// Chosen over `std::hash::Hasher` because fingerprints must be *stable*:
/// reproducible across processes, platforms and releases, so that a result
/// cache keyed on them stays valid. `DefaultHasher` makes no such promise.
///
/// [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Creates a hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self(Self::OFFSET_BASIS)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds one `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// The integrity frame sealed over one committed spill run or one
/// materialized DFS stream: a record-count length header plus an FNV-64
/// checksum.
///
/// The engine never serializes payloads (everything stays in memory), so
/// the checksum covers what a compact binary frame would expose without a
/// payload scan: the record count and each record's encoded size, in
/// order. Frames never leave memory, so the checksum is FNV-1a over those
/// values as 64-bit *words* — one multiply a record, not eight — and no
/// stored frame has to match another recipe. Readers re-derive the frame on open ([`RunFrame::verify`]) and
/// treat any mismatch as at-rest corruption — in the engine's case, by
/// re-executing the map task that produced the run. Deterministic fault
/// injection models a flipped byte by tampering the stored checksum
/// ([`RunFrame::tamper`]), exactly what a real bit flip under a CRC would
/// look like to the reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFrame {
    /// Number of records the frame was sealed over (the length header).
    pub len: u64,
    /// FNV-64 over the length header and each record's encoded size.
    pub checksum: u64,
}

impl RunFrame {
    /// Seals a frame over the records as they are committed.
    #[must_use]
    pub fn seal<T: RecordSize>(records: &[T]) -> Self {
        let len = records.len() as u64;
        let word = |h: u64, w: u64| (h ^ w).wrapping_mul(Fnv64::PRIME);
        let sizes = records.iter().map(|r| r.size_bytes() as u64);
        Self {
            len,
            checksum: sizes.fold(word(Fnv64::OFFSET_BASIS, len), word),
        }
    }

    /// Re-derives the frame from the data read back and compares: `true`
    /// iff both the length header and the checksum match.
    #[must_use]
    pub fn verify<T: RecordSize>(&self, records: &[T]) -> bool {
        *self == Self::seal(records)
    }

    /// Flips one checksum bit — the injected stand-in for at-rest
    /// corruption. Never identity, so a tampered frame always fails
    /// verification.
    #[must_use]
    pub fn tamper(mut self) -> Self {
        self.checksum ^= 1;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives() {
        assert_eq!(7u32.size_bytes(), 4);
        assert_eq!(7u64.size_bytes(), 8);
        assert_eq!(1.5f64.size_bytes(), 8);
        assert_eq!(true.size_bytes(), 1);
        assert_eq!(().size_bytes(), 0);
    }

    #[test]
    fn strings_carry_length_prefix() {
        assert_eq!("abc".size_bytes(), 7);
        assert_eq!(String::from("abc").size_bytes(), 7);
    }

    #[test]
    fn frame_roundtrip_and_tamper() {
        let records = vec![(1u32, 7u64, "abc".to_string()), (2, 8, "d".into())];
        let frame = RunFrame::seal(&records);
        assert_eq!(frame.len, 2);
        assert!(frame.verify(&records));
        assert!(!frame.tamper().verify(&records));
        // A dropped record fails the length header; a swapped-size record
        // fails the checksum.
        assert!(!frame.verify(&records[..1]));
        let resized = vec![(1u32, 7u64, "abcd".to_string()), (2, 8, String::new())];
        assert!(!frame.verify(&resized));
        // Empty runs still frame (len 0) and verify.
        let empty: Vec<u64> = Vec::new();
        assert!(RunFrame::seal(&empty).verify(&empty));
        // Two records trading sizes change the checksum too.
        let swapped = vec![(2u32, 8u64, "d".to_string()), (1, 7, "abc".into())];
        assert!(!frame.verify(&swapped));
    }

    #[test]
    fn composites() {
        assert_eq!((1u32, 2u64).size_bytes(), 12);
        assert_eq!(vec![1u32, 2, 3].size_bytes(), 4 + 12);
        assert_eq!(Some(3u16).size_bytes(), 3);
        assert_eq!(None::<u16>.size_bytes(), 1);
        assert_eq!([1u8; 5].size_bytes(), 5);
        assert_eq!(Box::new(9u64).size_bytes(), 8);
    }
}
