use std::sync::atomic::{AtomicU64, Ordering};

use crate::fault::FaultInjector;
use crate::record::RunFrame;
use crate::{MetricsReport, RecordSize};

/// Errors from [`Dfs::materialize`]; each names the stream's label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// Every read retry hit an injected transient failure (the DFS analogue
    /// of a task exhausting its attempts).
    Unavailable(String),
    /// The stream's integrity frame ([`RunFrame`]) no longer matches its
    /// records — at-rest corruption detected on open.
    Corrupt(String),
}

impl std::fmt::Display for DfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
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

/// An in-memory stand-in for HDFS.
///
/// Chained jobs (the *2-way Cascade* baseline, C-Rep's marked stream)
/// persist each intermediate result here and re-read it as the next job's
/// input; each call charges its bytes to the calling run's
/// [`MetricsReport`], exposing the amplification the paper blames for
/// Cascade's poor performance (§6.4: "a huge reading and writing cost").
///
/// Under a fault plan reads can hit *transient* failures: the failure is
/// counted, the read retried in place (a fresh replica in a real
/// deployment), and only a successful read is charged as read bytes. A
/// read whose every retry fails returns [`DfsError::Unavailable`]. The
/// DFS itself holds only its injector and the read sequence that numbers
/// every read for it.
#[derive(Default)]
pub struct Dfs {
    injector: FaultInjector,
    read_seq: AtomicU64,
}

impl Dfs {
    /// Creates a fault-free DFS.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a DFS whose reads are subject to the injector's
    /// transient-failure rate.
    #[must_use]
    pub fn with_faults(injector: FaultInjector) -> Self {
        Self {
            injector,
            ..Self::default()
        }
    }

    /// Materializes a stream between two jobs of one run, as Hadoop does:
    /// charges the records' encoded size to `report`'s write bytes and
    /// seals an integrity frame ([`RunFrame`]: record-count length header +
    /// FNV-64 checksum), then reads the stream back — through the
    /// transient-fault path, numbered by a DFS-wide read sequence, and the
    /// frame check — charging `report`'s read bytes and transient read
    /// failures, and hands the records back.
    ///
    /// A frame mismatch (at-rest corruption) surfaces as
    /// [`DfsError::Corrupt`]; unlike transient read failures it is not
    /// retried, because every replica of the simulated store shares the
    /// bytes. `label` only names the stream in errors: a stream lives for
    /// this one call, so concurrent runs never see each other's.
    pub fn materialize<T: RecordSize>(
        &self,
        label: &str,
        data: Vec<T>,
        report: &mut MetricsReport,
    ) -> Result<Vec<T>, DfsError> {
        let bytes: u64 = data.iter().map(|r| r.size_bytes() as u64).sum();
        let frame = RunFrame::seal(&data);
        report.dfs_write_bytes += bytes;

        let seq = self.read_seq.fetch_add(1, Ordering::Relaxed);
        let mut attempt = 0u32;
        while self.injector.should_fail_dfs_read(seq, attempt) {
            report.dfs_transient_read_failures += 1;
            attempt += 1;
            if attempt >= self.injector.max_attempts() {
                return Err(DfsError::Unavailable(label.to_string()));
            }
        }
        if !frame.verify(&data) {
            return Err(DfsError::Corrupt(label.to_string()));
        }
        report.dfs_read_bytes += bytes;
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn byte_accounting() {
        let dfs = Dfs::new();
        let mut report = MetricsReport::default();
        let back = dfs
            .materialize("nums", vec![1u64, 2, 3], &mut report)
            .unwrap(); // 24 bytes
        assert_eq!(back, vec![1, 2, 3]);
        assert_eq!((report.dfs_write_bytes, report.dfs_read_bytes), (24, 24));
        assert_eq!(report.dfs_transient_read_failures, 0);
    }

    #[test]
    fn transient_read_faults_are_retried_and_uncharged() {
        let mut plan = FaultPlan::none();
        plan.dfs_read_failure_rate = 0.5;
        plan.seed = 11;
        // Enough retries that no read plausibly exhausts them (0.5^16).
        plan.max_attempts = 16;
        let dfs = Dfs::with_faults(FaultInjector::new(plan));
        let mut report = MetricsReport::default();
        for _ in 0..50 {
            // Every read eventually succeeds (failures are transient) and
            // returns the right data.
            assert_eq!(
                dfs.materialize("nums", vec![1u64, 2, 3], &mut report)
                    .unwrap(),
                vec![1, 2, 3]
            );
        }
        assert!(report.dfs_transient_read_failures > 0);
        // Only successful reads are charged: exactly 50 × 24 bytes.
        assert_eq!(report.dfs_read_bytes, 50 * 24);
    }

    #[test]
    fn exhausted_read_retries_surface_unavailable() {
        let mut plan = FaultPlan::none();
        plan.dfs_read_failure_rate = 1.0;
        let dfs = Dfs::with_faults(FaultInjector::new(plan));
        let mut report = MetricsReport::default();
        assert_eq!(
            dfs.materialize("nums", vec![1u64], &mut report)
                .unwrap_err(),
            DfsError::Unavailable("nums".into())
        );
        // The write was charged, the failed read was not.
        assert_eq!((report.dfs_write_bytes, report.dfs_read_bytes), (8, 0));
        assert_eq!(
            report.dfs_transient_read_failures,
            u64::from(FaultPlan::DEFAULT_MAX_ATTEMPTS)
        );
    }
}
