//! An in-process, multi-threaded map-reduce engine.
//!
//! This crate stands in for the Hadoop 0.20.2 + HDFS stack the paper runs
//! on (§2, §7.8.1). It executes jobs with real parallelism and a real
//! shuffle — mappers emit `(key, value)` pairs that are partitioned,
//! routed, sorted and grouped per reducer — and it meters exactly the
//! quantities the paper's evaluation reasons about:
//!
//! * **intermediate key-value pairs** (the communication cost that
//!   *Controlled-Replicate* is engineered to minimize),
//! * **shuffle bytes** (via the [`RecordSize`] trait),
//! * **DFS read/write bytes** (the read/write amplification that makes
//!   *2-way Cascade* slow — its growing intermediate result is written
//!   and read back between every two chained jobs by
//!   [`Dfs::materialize`], the DFS's one call),
//! * per-phase and end-to-end wall time.
//!
//! The engine is deliberately faithful to the map-reduce execution model:
//! the reduce phase starts only after every mapper finishes (barrier), all
//! pairs with equal keys meet at a single reducer, and reducers process
//! keys in sorted order. As in Hadoop, sorting happens mapper-side: each
//! map task commits its output as per-partition *sorted runs*, and each
//! reduce task puts its own in task order, verifies and merges them, and
//! reducers borrow each key's values as a slice of the merged
//! buffer — the data path from map emit to reduce is zero-copy.
//!
//! It is also faithful to map-reduce's *failure* model: every map chunk
//! and reduce partition runs as a retryable task attempt whose output
//! commits atomically on success, with speculative re-execution of
//! stragglers — see [`FaultPlan`] for deterministic fault injection;
//! [`Engine::run`] surfaces failed jobs as [`JobError`]s.
//!
//! Jobs are described declaratively with a [`JobSpec`] builder and
//! submitted with [`Engine::run`], which returns the job's output and its
//! [`JobMetrics`] (the engine keeps no history of its own); a
//! [`TraceSink`] attached to the engine or to one spec records a span per
//! job, phase and task attempt, exportable as a JSON-lines event log or a
//! `chrome://tracing` file.
//!
//! # Example
//!
//! ```
//! use mwsj_mapreduce::{Engine, EngineConfig, JobSpec, TraceSink};
//!
//! let trace = TraceSink::recording();
//! let engine = Engine::new(EngineConfig::default().with_trace(trace.clone()));
//! let words = vec!["a b", "b c", "c b"];
//! let (mut counts, metrics) = engine
//!     .run(
//!         JobSpec::new("word-count")
//!             .reducers(4)
//!             .map(|line: &&str, emit| {
//!                 for w in line.split(' ') {
//!                     emit(w.to_string(), 1u64);
//!                 }
//!             })
//!             .partition(|key: &String, n| key.len() % n)
//!             .reduce(|word: &String, ones: &[u64], out| {
//!                 out((word.clone(), ones.len() as u64));
//!             }),
//!         &words,
//!     )
//!     .expect("word-count failed");
//! counts.sort();
//! assert_eq!(counts, vec![("a".into(), 1), ("b".into(), 3), ("c".into(), 2)]);
//! assert_eq!(metrics.map_output_records, 6);
//! assert!(trace.to_chrome_trace().contains("word-count"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dfs;
mod engine;
mod fault;
pub mod json;
mod metrics;
mod record;
mod schedule;
mod trace;

pub use dfs::{Dfs, DfsError};
pub use engine::{Engine, EngineConfig, JobSpec, Unset};
pub use fault::{
    FaultInjector, FaultPlan, ForcedFault, JobError, JobErrorKind, NetFault, NetFaultPlan, Phase,
};
pub use metrics::{CostModel, JobMetrics, MetricsReport};
pub use record::{Fnv64, RecordSize, RunFrame};
pub use schedule::{CancelToken, JobRegistration, SlotScheduler};
pub use trace::{json_escape, validate_json, AttemptOutcome, RaceWinner, TraceEvent, TraceSink};
