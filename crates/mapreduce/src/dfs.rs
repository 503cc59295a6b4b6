use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::fault::FaultInjector;
use crate::record::{Fnv64, RunFrame, StableHash};
use crate::RecordSize;

/// A stable content hash of one stored dataset.
///
/// Computed from the records' [`StableHash`] encodings at write time, so
/// two datasets fingerprint identically iff their record bytes are
/// identical — regeneration from the same seed matches, a one-record
/// perturbation does not. Result caches key on this (plus the canonical
/// query and the algorithm) to decide whether a cached answer is still
/// valid for a named input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatasetFingerprint(pub u64);

impl std::fmt::Display for DatasetFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Errors from [`Dfs`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// No dataset with that name exists.
    NotFound(String),
    /// The dataset exists but holds a different element type.
    TypeMismatch(String),
    /// Every read retry hit an injected transient failure (the DFS analogue
    /// of a task exhausting its attempts).
    Unavailable(String),
    /// The dataset's integrity frame ([`RunFrame`]) no longer matches its
    /// records — at-rest corruption detected on open.
    Corrupt(String),
}

impl std::fmt::Display for DfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfsError::NotFound(n) => write!(f, "dataset `{n}` not found"),
            DfsError::TypeMismatch(n) => write!(f, "dataset `{n}` holds a different type"),
            DfsError::Unavailable(n) => {
                write!(
                    f,
                    "dataset `{n}` unavailable: transient read retries exhausted"
                )
            }
            DfsError::Corrupt(n) => {
                write!(f, "dataset `{n}` corrupt: integrity frame mismatch")
            }
        }
    }
}

impl std::error::Error for DfsError {}

struct Dataset {
    data: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    records: u64,
    fingerprint: DatasetFingerprint,
    /// Integrity frame sealed at write time and re-derived on every read.
    frame: RunFrame,
}

/// An in-memory stand-in for HDFS with byte accounting.
///
/// Chained jobs (the *2-way Cascade* baseline) persist each intermediate
/// join result here and re-read it as the next job's input; the read/write
/// counters expose the amplification the paper blames for Cascade's poor
/// performance (§6.4: "a huge reading and writing cost").
///
/// Under a fault plan reads can hit *transient* failures: the failure is
/// counted, the read retried in place (a fresh replica in a real
/// deployment), and only a successful read is charged to the byte
/// counters. A read whose every retry fails returns
/// [`DfsError::Unavailable`].
#[derive(Default)]
pub struct Dfs {
    datasets: RwLock<HashMap<String, Dataset>>,
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
    injector: FaultInjector,
    read_seq: AtomicU64,
    transient_read_failures: AtomicU64,
    /// Suffix source for [`Dfs::materialize`]'s private dataset names.
    materialize_seq: AtomicU64,
}

impl Dfs {
    /// Creates an empty, fault-free DFS.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty DFS whose reads are subject to the injector's
    /// transient-failure rate.
    #[must_use]
    pub fn with_faults(injector: FaultInjector) -> Self {
        Self {
            injector,
            ..Self::default()
        }
    }

    /// Writes (or replaces) a dataset, charging its encoded size to the
    /// write counter, fingerprinting the stored records (see
    /// [`DatasetFingerprint`]) and sealing an integrity frame
    /// ([`RunFrame`]: record-count length header + FNV-64 checksum) that
    /// every subsequent read re-verifies.
    pub fn write<T: RecordSize + StableHash + Send + Sync + 'static>(
        &self,
        name: &str,
        data: Vec<T>,
    ) {
        let bytes: u64 = data.iter().map(|r| r.size_bytes() as u64).sum();
        let records = data.len() as u64;
        let mut h = Fnv64::new();
        h.write_u64(records);
        for r in &data {
            r.stable_hash(&mut h);
        }
        let fingerprint = DatasetFingerprint(h.finish());
        let frame = RunFrame::seal(&data);
        self.write_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.datasets.write().insert(
            name.to_string(),
            Dataset {
                data: Arc::new(data),
                bytes,
                records,
                fingerprint,
                frame,
            },
        );
    }

    /// Reads a dataset, charging its encoded size to the read counter. The
    /// data is shared, not copied. The stored integrity frame is
    /// re-derived from the records on open; a mismatch (at-rest
    /// corruption) surfaces as [`DfsError::Corrupt`] — unlike transient
    /// read failures it is not retried, because every replica of the
    /// simulated store shares the bytes.
    pub fn read<T: RecordSize + Send + Sync + 'static>(
        &self,
        name: &str,
    ) -> Result<Arc<Vec<T>>, DfsError> {
        let seq = self.read_seq.fetch_add(1, Ordering::Relaxed);
        let mut attempt = 0u32;
        while self.injector.should_fail_dfs_read(seq, attempt) {
            self.transient_read_failures.fetch_add(1, Ordering::Relaxed);
            attempt += 1;
            if attempt >= self.injector.max_attempts() {
                return Err(DfsError::Unavailable(name.to_string()));
            }
        }
        let guard = self.datasets.read();
        let ds = guard
            .get(name)
            .ok_or_else(|| DfsError::NotFound(name.to_string()))?;
        let data = Arc::clone(&ds.data)
            .downcast::<Vec<T>>()
            .map_err(|_| DfsError::TypeMismatch(name.to_string()))?;
        if !ds.frame.verify(&data) {
            return Err(DfsError::Corrupt(name.to_string()));
        }
        self.read_bytes.fetch_add(ds.bytes, Ordering::Relaxed);
        Ok(data)
    }

    /// Materializes a stream between two jobs of one run, as Hadoop does:
    /// writes `data`, reads it back through the fault and integrity path,
    /// and deletes the dataset again — charged to the counters like the
    /// [`Dfs::write`] and [`Dfs::read`] it consists of.
    ///
    /// The dataset lives under a name no other call can produce (`label`
    /// plus a sequence number), so concurrent runs on a shared engine never
    /// read each other's stream, and the DFS does not keep a finished
    /// run's stream alive.
    pub fn materialize<T: RecordSize + StableHash + Send + Sync + 'static>(
        &self,
        label: &str,
        data: Vec<T>,
    ) -> Result<Vec<T>, DfsError> {
        let seq = self.materialize_seq.fetch_add(1, Ordering::Relaxed);
        let name = format!("{label}#{seq}");
        self.write(&name, data);
        let read = self.read(&name);
        self.delete(&name);
        Ok(Arc::into_inner(read?).expect("nobody else knew the dataset's name"))
    }

    /// Tampers the stored integrity frame of a dataset — the test hook for
    /// at-rest corruption. Every subsequent read fails with
    /// [`DfsError::Corrupt`] until the dataset is rewritten.
    pub fn tamper(&self, name: &str) -> Result<(), DfsError> {
        let mut guard = self.datasets.write();
        let ds = guard
            .get_mut(name)
            .ok_or_else(|| DfsError::NotFound(name.to_string()))?;
        ds.frame = ds.frame.tamper();
        Ok(())
    }

    /// Removes a dataset (no-op if absent).
    pub fn delete(&self, name: &str) {
        self.datasets.write().remove(name);
    }

    /// Whether a dataset exists.
    #[must_use]
    pub fn exists(&self, name: &str) -> bool {
        self.datasets.read().contains_key(name)
    }

    /// Number of datasets currently stored.
    #[must_use]
    pub fn dataset_count(&self) -> usize {
        self.datasets.read().len()
    }

    /// Number of records in a dataset.
    pub fn record_count(&self, name: &str) -> Result<u64, DfsError> {
        self.datasets
            .read()
            .get(name)
            .map(|d| d.records)
            .ok_or_else(|| DfsError::NotFound(name.to_string()))
    }

    /// The content fingerprint computed when the dataset was written.
    pub fn fingerprint(&self, name: &str) -> Result<DatasetFingerprint, DfsError> {
        self.datasets
            .read()
            .get(name)
            .map(|d| d.fingerprint)
            .ok_or_else(|| DfsError::NotFound(name.to_string()))
    }

    /// Total bytes read so far.
    #[must_use]
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes.load(Ordering::Relaxed)
    }

    /// Total bytes written so far.
    #[must_use]
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes.load(Ordering::Relaxed)
    }

    /// Transient read failures injected (and retried) so far.
    #[must_use]
    pub fn transient_read_failures(&self) -> u64 {
        self.transient_read_failures.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let dfs = Dfs::new();
        dfs.write("nums", vec![1u64, 2, 3]);
        let back = dfs.read::<u64>("nums").unwrap();
        assert_eq!(*back, vec![1, 2, 3]);
        assert_eq!(dfs.record_count("nums").unwrap(), 3);
    }

    #[test]
    fn byte_accounting() {
        let dfs = Dfs::new();
        dfs.write("nums", vec![1u64, 2, 3]); // 24 bytes
        assert_eq!(dfs.write_bytes(), 24);
        assert_eq!(dfs.read_bytes(), 0);
        let _ = dfs.read::<u64>("nums").unwrap();
        let _ = dfs.read::<u64>("nums").unwrap();
        assert_eq!(dfs.read_bytes(), 48);
    }

    #[test]
    fn missing_dataset() {
        let dfs = Dfs::new();
        assert_eq!(
            dfs.read::<u64>("nope").unwrap_err(),
            DfsError::NotFound("nope".into())
        );
        assert!(!dfs.exists("nope"));
    }

    #[test]
    fn type_mismatch() {
        let dfs = Dfs::new();
        dfs.write("nums", vec![1u64]);
        assert_eq!(
            dfs.read::<u32>("nums").unwrap_err(),
            DfsError::TypeMismatch("nums".into())
        );
    }

    #[test]
    fn overwrite_replaces() {
        let dfs = Dfs::new();
        dfs.write("d", vec![1u8]);
        dfs.write("d", vec![2u8, 3]);
        assert_eq!(*dfs.read::<u8>("d").unwrap(), vec![2, 3]);
        assert_eq!(dfs.write_bytes(), 3);
    }

    #[test]
    fn transient_read_faults_are_retried_and_uncharged() {
        use crate::fault::FaultPlan;
        let mut plan = FaultPlan::none();
        plan.dfs_read_failure_rate = 0.5;
        plan.seed = 11;
        // Enough retries that no read plausibly exhausts them (0.5^16).
        plan.max_attempts = 16;
        let dfs = Dfs::with_faults(FaultInjector::new(plan));
        dfs.write("nums", vec![1u64, 2, 3]);
        for _ in 0..50 {
            // Every read eventually succeeds (failures are transient) and
            // returns the right data.
            assert_eq!(*dfs.read::<u64>("nums").unwrap(), vec![1, 2, 3]);
        }
        assert!(dfs.transient_read_failures() > 0);
        // Only successful reads are charged: exactly 50 × 24 bytes.
        assert_eq!(dfs.read_bytes(), 50 * 24);
    }

    #[test]
    fn exhausted_read_retries_surface_unavailable() {
        use crate::fault::FaultPlan;
        let mut plan = FaultPlan::none();
        plan.dfs_read_failure_rate = 1.0;
        let dfs = Dfs::with_faults(FaultInjector::new(plan));
        dfs.write("nums", vec![1u64]);
        assert_eq!(
            dfs.read::<u64>("nums").unwrap_err(),
            DfsError::Unavailable("nums".into())
        );
    }

    #[test]
    fn tampered_frame_surfaces_corrupt() {
        let dfs = Dfs::new();
        dfs.write("nums", vec![1u64, 2, 3]);
        assert_eq!(*dfs.read::<u64>("nums").unwrap(), vec![1, 2, 3]);
        let before = dfs.read_bytes();
        dfs.tamper("nums").unwrap();
        assert_eq!(
            dfs.read::<u64>("nums").unwrap_err(),
            DfsError::Corrupt("nums".into())
        );
        // Corrupt reads are not charged to the byte counters.
        assert_eq!(dfs.read_bytes(), before);
        // Rewriting reseals the frame.
        dfs.write("nums", vec![4u64]);
        assert_eq!(*dfs.read::<u64>("nums").unwrap(), vec![4]);
        assert_eq!(
            dfs.tamper("nope").unwrap_err(),
            DfsError::NotFound("nope".into())
        );
    }

    #[test]
    fn materialize_round_trips_and_leaves_nothing_behind() {
        let dfs = Dfs::new();
        let back = dfs.materialize("stream", vec![1u64, 2, 3]).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        assert_eq!((dfs.write_bytes(), dfs.read_bytes()), (24, 24));
        assert_eq!(dfs.dataset_count(), 0);

        // An unreadable stream is deleted too.
        use crate::fault::FaultPlan;
        let mut plan = FaultPlan::none();
        plan.dfs_read_failure_rate = 1.0;
        let dfs = Dfs::with_faults(FaultInjector::new(plan));
        assert!(matches!(
            dfs.materialize("stream", vec![1u64]),
            Err(DfsError::Unavailable(_))
        ));
        assert_eq!(dfs.dataset_count(), 0);
    }

    #[test]
    fn delete_removes() {
        let dfs = Dfs::new();
        dfs.write("d", vec![1u8]);
        dfs.delete("d");
        assert!(!dfs.exists("d"));
    }

    /// A seeded xorshift stand-in for a dataset generator: the same seed
    /// must regenerate a byte-identical dataset, hence the same
    /// fingerprint.
    fn gen_rects(seed: u64, n: usize) -> Vec<(f64, f64, f64, f64)> {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| (next() * 1e3, next() * 1e3, next() * 10.0, next() * 10.0))
            .collect()
    }

    #[test]
    fn same_seed_regeneration_fingerprints_identically() {
        let dfs = Dfs::new();
        dfs.write("a", gen_rects(42, 500));
        dfs.write("b", gen_rects(42, 500));
        assert_eq!(dfs.fingerprint("a").unwrap(), dfs.fingerprint("b").unwrap());
        assert_eq!(dfs.fingerprint("a").unwrap().to_string().len(), 16);
    }

    #[test]
    fn one_rect_perturbation_changes_fingerprint() {
        let dfs = Dfs::new();
        let base = gen_rects(42, 500);
        let mut perturbed = base.clone();
        perturbed[250].0 += 1e-9;
        dfs.write("base", base);
        dfs.write("perturbed", perturbed);
        assert_ne!(
            dfs.fingerprint("base").unwrap(),
            dfs.fingerprint("perturbed").unwrap()
        );
        assert_eq!(
            dfs.fingerprint("nope").unwrap_err(),
            DfsError::NotFound("nope".into())
        );
    }
}
