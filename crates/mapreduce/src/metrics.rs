use std::time::Duration;

use serde::Serialize;

/// A cost model translating the metered counters into an estimated wall
/// time on a 2013-era Hadoop cluster like the paper's (16-core blades,
/// Hadoop 0.20.2, SATA disks, 1 GbE).
///
/// The in-process engine makes shuffle and DFS traffic nearly free, which
/// flatters the 2-way Cascade baseline (its defining costs are per-job
/// overhead and intermediate-result I/O, §6.4). Applying this model to the
/// *measured byte and job counters* restores those costs:
///
/// ```text
/// modeled = Σ_jobs (overhead + compute + shuffle_bytes / shuffle_bw)
///         + dfs_bytes / dfs_bw
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Fixed per-job cost: JVM start-up, task scheduling, commit.
    pub per_job_overhead: Duration,
    /// Aggregate mapper->reducer network bandwidth (bytes/s).
    pub shuffle_bytes_per_sec: f64,
    /// Aggregate DFS read/write bandwidth (bytes/s).
    pub dfs_bytes_per_sec: f64,
}

impl CostModel {
    /// Rough constants for the paper's cluster: ~20 s of per-job overhead
    /// (Hadoop 0.20 job setup over 64 reduce slots), ~60 MB/s aggregate
    /// shuffle, ~80 MB/s aggregate HDFS throughput.
    #[must_use]
    pub fn hadoop_2013() -> Self {
        Self {
            per_job_overhead: Duration::from_secs(20),
            shuffle_bytes_per_sec: 60e6,
            dfs_bytes_per_sec: 80e6,
        }
    }
}

/// Counters collected for one map-reduce job.
///
/// `map_output_records` is the paper's central cost metric: the number of
/// intermediate key-value pairs communicated from mappers to reducers
/// ("Efficiency of a map-reduce program often hinges upon the number of
/// intermediate key-value pairs being generated", §1).
#[derive(Debug, Clone, Default, Serialize)]
pub struct JobMetrics {
    /// Job name (for reports).
    pub job_name: String,
    /// Records read by mappers.
    pub map_input_records: u64,
    /// Intermediate key-value pairs emitted by mappers (communication cost).
    pub map_output_records: u64,
    /// Bytes shuffled from mappers to reducers.
    pub shuffle_bytes: u64,
    /// Distinct keys processed by reducers.
    pub reduce_input_groups: u64,
    /// Values fed to reducers (equals `map_output_records`).
    pub reduce_input_records: u64,
    /// Records received by the most loaded reducer partition — divided by
    /// `reduce_input_records / partitions` this is the skew factor the
    /// paper's load-balancing objective cares about.
    pub max_partition_records: u64,
    /// Records emitted by reducers.
    pub reduce_output_records: u64,
    /// Map task attempts that failed (injected faults or mapper panics).
    /// Fault-tolerance bookkeeping, *not* a paper-table counter: the
    /// logical counters above only ever count committed attempts.
    pub map_task_failures: u64,
    /// Reduce task attempts that failed.
    pub reduce_task_failures: u64,
    /// Task re-executions after a failed attempt (map + reduce).
    pub retries: u64,
    /// Speculative duplicate attempts launched for straggling tasks.
    pub speculative_launched: u64,
    /// Speculative attempts that finished before their straggling primary
    /// and committed the task.
    pub speculative_won: u64,
    /// Sorted spill runs committed by map tasks (one per non-empty
    /// per-partition bucket of a committed attempt). Deterministic for a
    /// fixed engine config: each task commits exactly once, faults or not.
    pub spill_runs: u64,
    /// Spill runs whose integrity frame failed verification when their
    /// reduce task opened them (at-rest corruption, detected and repaired by
    /// re-executing the producing map task). Fault-tolerance bookkeeping
    /// like `retries`, never a paper-table counter.
    pub corrupt_runs: u64,
    /// Wall time of the map phase.
    pub map_wall: Duration,
    /// Time map attempts spent sorting their spill runs, summed over the
    /// committed attempts (the sorts run in parallel inside the map
    /// phase, so this can exceed any single phase's wall clock).
    pub sort_wall: Duration,
    /// Time reduce tasks spent putting their runs in task order and
    /// verifying them (repairs included), summed over reduce tasks (it
    /// falls inside `reduce_wall`).
    pub shuffle_wall: Duration,
    /// Time reduce tasks spent k-way-merging their runs, summed over
    /// reduce tasks (it falls inside `reduce_wall`).
    pub merge_wall: Duration,
    /// Wall time of the reduce phase.
    pub reduce_wall: Duration,
    /// End-to-end job wall time.
    pub total_wall: Duration,
    /// Time the job's task claims spent waiting for a scheduler slot,
    /// summed over tasks. Zero when the job had the engine to itself (the
    /// default slot pool admits a solo job's full parallelism).
    pub queue_wait: Duration,
    /// Time the job's tasks held scheduler slots, summed over tasks —
    /// the job's occupancy of the shared worker pool.
    pub slot_wall: Duration,
    /// Time spent opening (reading + validating) pre-built on-disk indexes
    /// before any task ran. Zero for ordinary shuffle jobs; the map-side
    /// join over stored datasets reports its store-open cost here so the
    /// "shuffle-free" wall time still accounts for everything it did.
    pub index_open_wall: Duration,
    /// Stable fingerprint of the job's input datasets, as the submitter
    /// computed it, carried through
    /// from [`JobSpec::input_fingerprint`](crate::JobSpec::input_fingerprint);
    /// `0` when the submitter attached none.
    pub input_fingerprint: u64,
}

/// Aggregated metrics over a sequence of jobs (one distributed join run may
/// execute several jobs: C-Rep runs two rounds, 2-way Cascade runs one job
/// per 2-way join). The run builds it itself: it appends the
/// [`JobMetrics`] each [`Engine::run`](crate::Engine::run) returns and
/// passes it to [`Dfs::materialize`](crate::Dfs::materialize), which
/// charges it the DFS counters, so the report covers exactly that run
/// however many others share the engine.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MetricsReport {
    /// Per-job metrics in execution order.
    pub jobs: Vec<JobMetrics>,
    /// Bytes read from the DFS across the run.
    pub dfs_read_bytes: u64,
    /// Bytes written to the DFS across the run.
    pub dfs_write_bytes: u64,
    /// Transient DFS read failures that were retried (fault injection);
    /// the byte counters only charge successful reads.
    pub dfs_transient_read_failures: u64,
}

impl MetricsReport {
    /// Total intermediate key-value pairs across all jobs.
    #[must_use]
    pub fn total_intermediate_records(&self) -> u64 {
        self.jobs.iter().map(|j| j.map_output_records).sum()
    }

    /// Total bytes shuffled across all jobs.
    #[must_use]
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.shuffle_bytes).sum()
    }

    /// Total wall time across all jobs.
    #[must_use]
    pub fn total_wall(&self) -> Duration {
        self.jobs.iter().map(|j| j.total_wall).sum()
    }

    /// Number of jobs executed.
    #[must_use]
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Renders a human-readable per-phase summary table: one row per job
    /// with map/shuffle/reduce/total wall times and the headline logical
    /// counters, plus a totals row. Complements the machine-readable
    /// exports on [`TraceSink`](crate::TraceSink).
    #[must_use]
    pub fn phase_table(&self) -> String {
        use std::fmt::Write as _;

        fn ms(d: Duration) -> String {
            format!("{:.1}", d.as_secs_f64() * 1e3)
        }

        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12} {:>13} {:>6} {:>7} {:>5} {:>7}",
            "job",
            "map ms",
            "sort ms",
            "shuf ms",
            "merge ms",
            "red ms",
            "total ms",
            "wait ms",
            "kv pairs",
            "shuffle B",
            "runs",
            "retries",
            "spec",
            "corrupt"
        );
        let mut total = JobMetrics::default();
        for j in &self.jobs {
            let _ = writeln!(
                out,
                "{:<24} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12} {:>13} {:>6} {:>7} {:>5} {:>7}",
                j.job_name,
                ms(j.map_wall),
                ms(j.sort_wall),
                ms(j.shuffle_wall),
                ms(j.merge_wall),
                ms(j.reduce_wall),
                ms(j.total_wall),
                ms(j.queue_wait),
                j.map_output_records,
                j.shuffle_bytes,
                j.spill_runs,
                j.retries,
                j.speculative_launched,
                j.corrupt_runs
            );
            total.map_wall += j.map_wall;
            total.sort_wall += j.sort_wall;
            total.shuffle_wall += j.shuffle_wall;
            total.merge_wall += j.merge_wall;
            total.reduce_wall += j.reduce_wall;
            total.total_wall += j.total_wall;
            total.queue_wait += j.queue_wait;
            total.map_output_records += j.map_output_records;
            total.shuffle_bytes += j.shuffle_bytes;
            total.spill_runs += j.spill_runs;
            total.retries += j.retries;
            total.speculative_launched += j.speculative_launched;
            total.corrupt_runs += j.corrupt_runs;
        }
        let _ = writeln!(
            out,
            "{:<24} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12} {:>13} {:>6} {:>7} {:>5} {:>7}",
            format!("total ({} jobs)", self.jobs.len()),
            ms(total.map_wall),
            ms(total.sort_wall),
            ms(total.shuffle_wall),
            ms(total.merge_wall),
            ms(total.reduce_wall),
            ms(total.total_wall),
            ms(total.queue_wait),
            total.map_output_records,
            total.shuffle_bytes,
            total.spill_runs,
            total.retries,
            total.speculative_launched,
            total.corrupt_runs
        );
        let index_open: Duration = self.jobs.iter().map(|j| j.index_open_wall).sum();
        if index_open > Duration::ZERO {
            let _ = writeln!(out, "index open: {} ms", ms(index_open));
        }
        let _ = writeln!(
            out,
            "dfs: {} B read, {} B written",
            self.dfs_read_bytes, self.dfs_write_bytes
        );
        out
    }

    /// Estimated wall time under a [`CostModel`] (see its docs): measured
    /// compute time plus modeled job overhead, shuffle and DFS transfer
    /// times derived from the metered counters.
    #[must_use]
    pub fn modeled_time(&self, model: &CostModel) -> Duration {
        let mut total = Duration::ZERO;
        for j in &self.jobs {
            total += model.per_job_overhead;
            total += j.map_wall + j.reduce_wall;
            total += Duration::from_secs_f64(j.shuffle_bytes as f64 / model.shuffle_bytes_per_sec);
        }
        total += Duration::from_secs_f64(
            (self.dfs_read_bytes + self.dfs_write_bytes) as f64 / model.dfs_bytes_per_sec,
        );
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_aggregates_jobs() {
        let mut report = MetricsReport::default();
        for i in 1..=3u64 {
            report.jobs.push(JobMetrics {
                job_name: format!("job{i}"),
                map_output_records: 10 * i,
                shuffle_bytes: 100 * i,
                total_wall: Duration::from_millis(i),
                ..JobMetrics::default()
            });
        }
        assert_eq!(report.num_jobs(), 3);
        assert_eq!(report.total_intermediate_records(), 60);
        assert_eq!(report.total_shuffle_bytes(), 600);
        assert_eq!(report.total_wall(), Duration::from_millis(6));
    }

    #[test]
    fn phase_table_lists_every_job_and_totals() {
        let mut report = MetricsReport::default();
        for i in 1..=2u64 {
            report.jobs.push(JobMetrics {
                job_name: format!("job{i}"),
                map_output_records: 10 * i,
                shuffle_bytes: 100 * i,
                map_wall: Duration::from_millis(2 * i),
                total_wall: Duration::from_millis(3 * i),
                ..JobMetrics::default()
            });
        }
        report.dfs_read_bytes = 64;
        let table = report.phase_table();
        assert!(table.contains("job1") && table.contains("job2"));
        assert!(table.contains("total (2 jobs)"));
        assert!(table.contains("30"), "kv-pair total missing:\n{table}");
        assert!(table.contains("64 B read"), "{table}");
    }

    #[test]
    fn phase_table_surfaces_index_open_time_only_when_nonzero() {
        let mut report = MetricsReport::default();
        report.jobs.push(JobMetrics {
            job_name: "j".into(),
            ..JobMetrics::default()
        });
        assert!(!report.phase_table().contains("index open"));
        report.jobs[0].index_open_wall = Duration::from_millis(4);
        let table = report.phase_table();
        assert!(table.contains("index open: 4.0 ms"), "{table}");
    }

    #[test]
    fn phase_table_surfaces_corrupt_runs() {
        let mut report = MetricsReport::default();
        report.jobs.push(JobMetrics {
            job_name: "j".into(),
            corrupt_runs: 7,
            ..JobMetrics::default()
        });
        let table = report.phase_table();
        assert!(table.contains("corrupt"), "header missing:\n{table}");
        assert!(table.contains('7'), "count missing:\n{table}");
    }
}
