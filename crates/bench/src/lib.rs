//! The paper's evaluation as one spec-driven runner.
//!
//! Tables 2-9, the reducer-grid ablation and the optimizer check are rows
//! of one table of [`specs::SPECS`]; `cargo bench -p mwsj-bench --bench
//! tables [-- SPEC...]` runs them (all, or the named ones) through
//! [`runner::run_spec`], which generates the inputs, measures every
//! algorithm column, prints the table, checks the count rules
//! ([`runner::check_row`]) and hands back a [`BenchLog`]; the target's
//! `main` writes `BENCH_<spec>.json` and splices the printed block between
//! the spec's `<!-- measured:NAME -->` markers in EXPERIMENTS.md.
//!
//! The paper's runs use millions of rectangles and a 16-core Hadoop
//! cluster for hours; the specs run the same experiments scaled down while
//! preserving the join *density* (and thus the comparative shape of the
//! results): with scale factor `s` (`MWSJ_SCALE`, default `0.01`), dataset
//! sizes shrink to `s x nI` and the space extent to `sqrt(s)` of the
//! paper's, keeping `n x (side / extent)²` — the expected number of
//! neighbours per rectangle — identical to the paper's setup, row by row.
//!
//! Fault-injection flags after `--` (`--fault-rate 0.05 --fault-seed 7
//! [--straggler-rate P]`) run every spec under that chaos plan, and —
//! because retried task attempts never commit partial output — print
//! exactly the same counts as the fault-free run.

#![forbid(unsafe_code)]

pub mod runner;
pub mod specs;

use std::time::{Duration, Instant};

use mwsj_core::{Algorithm, Cluster, JoinOutput, JoinRun};
use mwsj_geom::Rect;
use mwsj_mapreduce::CostModel;
use mwsj_query::Query;

/// An environment setting, or `default` when unset. Exits with a message
/// when the value does not parse or fails `valid` — a typo must not run the
/// default and stamp it into the JSON.
fn env_setting<T: std::str::FromStr>(
    name: &str,
    default: T,
    valid: impl Fn(&T) -> bool,
    wants: &str,
) -> T {
    let Ok(raw) = std::env::var(name) else {
        return default;
    };
    match raw.parse() {
        Ok(v) if valid(&v) => v,
        _ => {
            eprintln!("{name}=`{raw}` invalid: {wants}");
            std::process::exit(2);
        }
    }
}

/// The scale factor `s` (fraction of the paper's dataset sizes):
/// `MWSJ_SCALE`, default `0.01`.
#[must_use]
pub fn scale() -> f64 {
    env_setting(
        "MWSJ_SCALE",
        0.01,
        |&s| s > 0.0 && s <= 1.0,
        "a number in (0, 1]",
    )
}

/// Repetitions per measurement (`MWSJ_BENCH_REPS`, default 3); each
/// measured wall is the fastest of these.
#[must_use]
pub fn bench_reps() -> usize {
    env_setting("MWSJ_BENCH_REPS", 3, |&r| r >= 1, "an integer >= 1")
}

/// Worker threads available to this bench run.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One measured algorithm run.
pub struct Measured {
    /// Wall time of the full run.
    pub wall: Duration,
    /// The run's output and metrics.
    pub output: JoinOutput,
    /// Input records of the run (the sum of the relation sizes).
    pub input_records: u64,
    /// Reducers of the cluster the run used.
    pub reducers: u32,
}

impl Measured {
    /// Replication rate *r*: key-value pairs communicated per input record,
    /// over all of the run's jobs (Afrati et al.'s first axis).
    #[must_use]
    pub fn replication_rate(&self) -> f64 {
        let jobs = self.output.report.jobs.iter();
        jobs.map(|j| j.map_output_records).sum::<u64>() as f64 / self.input_records.max(1) as f64
    }

    /// Reducer input *q*: the largest number of records any one reducer
    /// received in any of the run's jobs (Afrati et al.'s second axis).
    #[must_use]
    pub fn max_reducer_input(&self) -> u64 {
        let jobs = self.output.report.jobs.iter();
        jobs.map(|j| j.max_partition_records).max().unwrap_or(0)
    }

    /// Max / mean reducer load of the run's last job — the round that
    /// joins; 1.0 is a perfectly even shuffle.
    #[must_use]
    pub fn reducer_skew(&self) -> f64 {
        self.output.report.jobs.last().map_or(0.0, |j| {
            let mean = j.reduce_input_records as f64 / f64::from(self.reducers);
            j.max_partition_records as f64 / mean.max(1.0)
        })
    }

    /// DFS bytes the run moved between its rounds, read plus written.
    #[must_use]
    pub fn dfs_bytes(&self) -> u64 {
        self.output.report.dfs_read_bytes + self.output.report.dfs_write_bytes
    }
}

/// Runs one algorithm in count-only mode (the tables report times and
/// replication counts; the paper's heavier rows produce outputs too large
/// to materialize), measuring end-to-end wall time.
///
/// The run repeats `reps` times and keeps the fastest — on a small shared
/// box a single run is dominated by scheduler and allocator noise. The
/// logical counters are deterministic across repeats (the chaos suite pins
/// this), so best-of-N only stabilizes the walls.
///
/// # Panics
/// If the run fails: the inputs are this crate's own, and under a fault
/// plan an exhausted attempt budget is a finding, not a row.
#[must_use]
pub fn measure(
    cluster: &Cluster,
    query: &Query,
    relations: &[&[Rect]],
    algorithm: Algorithm,
    reps: usize,
) -> Measured {
    let run = JoinRun::new(query, relations)
        .algorithm(algorithm)
        .counting();
    (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let output = cluster.submit(&run).unwrap_or_else(|e| panic!("{e}"));
            Measured {
                wall: t0.elapsed(),
                output,
                input_records: relations.iter().map(|r| r.len() as u64).sum(),
                reducers: cluster.grid().num_cells(),
            }
        })
        .min_by_key(|m| m.wall)
        .expect("at least one rep")
}

/// The time column, `measured [modeled]`: the wall as `mm:ss.mmm` (the
/// paper prints hh:mm; at our scale milliseconds matter), then an estimated
/// full-scale Hadoop time as `hh:mm:ss` — [`CostModel::hadoop_2013`]'s
/// per-job startup, plus the run's compute walls and its shuffle and DFS
/// bytes at the model's bandwidths, all scaled by `1 / s_eff`
/// (communication and join output grow linearly in the scale factor). A
/// rough extrapolation, but it restores the costs the in-memory substrate
/// hides (job startup and intermediate-result I/O — exactly what §6.4
/// blames for the cascade's behaviour).
#[must_use]
pub fn fmt_times(m: &Measured, s_eff: f64) -> String {
    let model = CostModel::hadoop_2013();
    let report = &m.output.report;
    let startup = model.per_job_overhead * report.num_jobs() as u32;
    let modeled = startup + (report.modeled_time(&model) - startup).div_f64(s_eff);
    let (ms, secs) = (m.wall.as_millis(), modeled.as_secs());
    format!(
        "{:02}:{:02}.{:03} [{:02}:{:02}:{:02}]",
        ms / 60_000,
        (ms / 1_000) % 60,
        ms % 1_000,
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

/// Collects per-phase timing records across a table's runs and writes them
/// as a machine-readable `BENCH_<table>.json` file next to the printed
/// table — one record per map-reduce job, with the phase walls and the
/// headline logical counters of that job, and one per run with its exact
/// counts and communication figures.
///
/// The JSON is emitted by hand (the workspace's offline `serde` is a
/// no-op shim); `mwsj_mapreduce::validate_json` accepts the output.
pub struct BenchLog {
    table: String,
    scale: f64,
    reps: usize,
    records: Vec<String>,
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", mwsj_mapreduce::json_escape(s))
}

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// One JSON object from already-rendered values.
fn json_obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

impl BenchLog {
    /// Starts a log for one table (e.g. `"table2"`), stamped with the
    /// environment's [`scale`] and [`bench_reps`].
    #[must_use]
    pub fn new(table: &str) -> Self {
        Self::stamped(table, scale(), bench_reps())
    }

    /// Starts a log stamped with the settings its runs actually used.
    #[must_use]
    pub fn stamped(table: &str, scale: f64, reps: usize) -> Self {
        Self {
            table: table.to_string(),
            scale,
            reps,
            records: Vec::new(),
        }
    }

    /// Records every job of one measured run under a row label, then the
    /// run itself: its exact counts, the algorithm that executed it, and
    /// *r*, *q* and the reducer skew (see [`Measured`]).
    pub fn record(&mut self, row: &str, algorithm: Algorithm, m: &Measured) {
        let id = [
            ("row", json_str(row)),
            ("algorithm", json_str(algorithm.name())),
        ];
        let (report, stats) = (&m.output.report, &m.output.stats);
        for j in &report.jobs {
            let job = [
                ("job", json_str(&j.job_name)),
                ("map_ms", ms(j.map_wall)),
                ("sort_ms", ms(j.sort_wall)),
                ("shuffle_ms", ms(j.shuffle_wall)),
                ("merge_ms", ms(j.merge_wall)),
                ("reduce_ms", ms(j.reduce_wall)),
                ("total_ms", ms(j.total_wall)),
                ("kv_pairs", j.map_output_records.to_string()),
                ("shuffle_bytes", j.shuffle_bytes.to_string()),
                ("spill_runs", j.spill_runs.to_string()),
                ("retries", j.retries.to_string()),
                ("speculative_launched", j.speculative_launched.to_string()),
            ];
            self.records.push(json_obj(&[&id[..], &job[..]].concat()));
        }
        let run = [
            ("run", "true".to_string()),
            ("wall_ms", ms(m.wall)),
            ("tuples", m.output.tuple_count.to_string()),
            ("jobs", report.num_jobs().to_string()),
            ("dfs_read_bytes", report.dfs_read_bytes.to_string()),
            ("dfs_write_bytes", report.dfs_write_bytes.to_string()),
            ("replicated", stats.rectangles_replicated.to_string()),
            (
                "after_replication",
                stats.rectangles_after_replication.to_string(),
            ),
            ("executed", json_str(m.output.algorithm.name())),
            ("r", format!("{:.4}", m.replication_rate())),
            ("q", m.max_reducer_input().to_string()),
            ("reducer_skew", format!("{:.4}", m.reducer_skew())),
        ];
        self.records.push(json_obj(&[&id[..], &run[..]].concat()));
    }

    /// Appends one pre-rendered JSON object to the record list — for
    /// benches whose records do not follow the per-job table shape (the
    /// service bench records one object per phase).
    pub fn push_record(&mut self, json: String) {
        self.records.push(json);
    }

    /// Renders the full document. The `env` header records where the
    /// numbers came from (worker threads, repetitions, scale), so
    /// `BENCH_*.json` trajectories are comparable across machines.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"table\":{},\"scale\":{},\"env\":{{\"nproc\":{},\"bench_reps\":{},\"scale\":{}}},\"records\":[\n{}\n]}}\n",
            json_str(&self.table),
            self.scale,
            nproc(),
            self.reps,
            self.scale,
            self.records.join(",\n")
        )
    }

    /// Writes `BENCH_<table>.json` into the workspace root and reports the
    /// path on stderr.
    ///
    /// # Errors
    /// Propagates the underlying file-system error.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let path = workspace_root().join(format!("BENCH_{}.json", self.table));
        std::fs::write(&path, self.to_json())?;
        eprintln!(
            "bench log : {} records -> {}",
            self.records.len(),
            path.display()
        );
        Ok(path)
    }
}

/// The workspace root (cargo runs benches from the package directory, two
/// levels below it) — where `BENCH_*.json` and EXPERIMENTS.md live.
#[must_use]
pub fn workspace_root() -> &'static std::path::Path {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root")
}
