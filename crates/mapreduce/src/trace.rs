//! Structured observability: spans, event log and trace export.
//!
//! The paper's whole argument is quantitative — Controlled-Replicate wins
//! because its *intermediate pairs* and *per-phase costs* are smaller
//! (§1, §7.8) — so the engine records not just end-of-run aggregates but a
//! structured event stream: one span per **job**, per **phase** (map,
//! reduce) and per **task attempt** (including retries and speculative
//! duplicates, tagged with their outcome), plus one counter snapshot per
//! finished job taken from the exact [`JobMetrics`] the paper tables are
//! built from.
//!
//! # Span hierarchy
//!
//! ```text
//! job (one per Engine::run)
//! ├── phase: map
//! │   └── task attempt (chunk × attempt, speculative duplicates tagged)
//! ├── phase: reduce
//! │   ├── task attempt (partition × attempt)
//! │   └── map task attempt (re-executed to repair a corrupt run)
//! └── counters                (snapshot of the job's JobMetrics)
//! ```
//!
//! # Recording
//!
//! A [`TraceSink`] is a cheap, cloneable handle. A *disabled* sink (the
//! default) makes every record call a no-op behind a single branch, so
//! tracing costs nothing when off — and when on, recording is one
//! timestamp read plus one short mutex push per event. Tracing never
//! touches the engine's logical counters: a traced run and an untraced
//! run report byte-identical [`MetricsReport`] values.
//!
//! # Export
//!
//! * [`TraceSink::to_jsonl`] — one JSON object per line (event log);
//! * [`TraceSink::to_chrome_trace`] — a `chrome://tracing` /
//!   [Perfetto](https://ui.perfetto.dev)-loadable JSON file: jobs appear
//!   as processes, tasks as threads, attempts as nested slices;
//! * [`MetricsReport::phase_table`](crate::MetricsReport::phase_table) —
//!   a human-readable per-phase summary table.
//!
//! The workspace's `serde` is an offline no-op shim, so both exporters
//! emit JSON by hand; [`validate_json`] is a small self-contained checker
//! used by the round-trip tests and the `mwsj trace-check` CLI command.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::fault::Phase;
use crate::JobMetrics;

/// How one task attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt ran to completion (its output is eligible to commit;
    /// for a raced attempt the [`TraceEvent::SpeculationResolved`] event
    /// names which copy actually committed).
    Succeeded,
    /// The fault injector failed the attempt; its output was discarded.
    InjectedFault,
    /// User code panicked; the panic was isolated to the attempt.
    Panicked,
    /// The partitioner routed a key out of range (fails the job).
    BadPartition,
    /// A committed spill run failed integrity verification when its
    /// reduce task opened it; the producing map task is re-executed.
    CorruptRun,
}

impl AttemptOutcome {
    /// Stable lowercase tag used by both exporters.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            AttemptOutcome::Succeeded => "succeeded",
            AttemptOutcome::InjectedFault => "injected-fault",
            AttemptOutcome::Panicked => "panicked",
            AttemptOutcome::BadPartition => "bad-partition",
            AttemptOutcome::CorruptRun => "corrupt-run",
        }
    }
}

/// Which copy of a straggler race committed the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceWinner {
    /// The speculative duplicate finished (successfully) first.
    Speculative,
    /// The straggling primary finished first.
    Primary,
    /// Neither copy succeeded (the attempt counts as failed and the task
    /// is retried or the job fails).
    Neither,
}

impl RaceWinner {
    /// Stable lowercase tag used by both exporters.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            RaceWinner::Speculative => "speculative",
            RaceWinner::Primary => "primary",
            RaceWinner::Neither => "neither",
        }
    }
}

/// One recorded event. Timestamps are microseconds since the sink was
/// created (one monotonic clock per sink, shared by every engine that
/// records into it).
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A job started executing.
    JobStart {
        /// Engine-wide job sequence number.
        job: u64,
        /// The job's name.
        name: String,
        /// Start timestamp (µs since sink creation).
        ts: u64,
    },
    /// A job finished (successfully or not).
    JobEnd {
        /// Engine-wide job sequence number.
        job: u64,
        /// End timestamp (µs).
        ts: u64,
        /// `None` on success; the job error's display otherwise.
        error: Option<String>,
    },
    /// A phase of a job started.
    PhaseStart {
        /// The owning job.
        job: u64,
        /// Which phase.
        phase: Phase,
        /// Start timestamp (µs).
        ts: u64,
    },
    /// A phase of a job ended.
    PhaseEnd {
        /// The owning job.
        job: u64,
        /// Which phase.
        phase: Phase,
        /// End timestamp (µs).
        ts: u64,
    },
    /// One task attempt ran (map chunk or reduce partition). Retries of a
    /// task appear as distinct events with increasing `attempt`;
    /// speculative duplicates carry the same `attempt` with
    /// `speculative = true`.
    Attempt {
        /// The owning job.
        job: u64,
        /// Map or reduce (the two phases with retryable tasks).
        phase: Phase,
        /// Task index (chunk index or partition index).
        task: usize,
        /// Attempt number within the task (0-based).
        attempt: u32,
        /// Whether this was the speculative duplicate of a straggler race.
        speculative: bool,
        /// Attempt start (µs).
        start: u64,
        /// Attempt end (µs).
        end: u64,
        /// How the attempt ended.
        outcome: AttemptOutcome,
    },
    /// A straggler race resolved: a speculative duplicate was launched for
    /// `(phase, task, attempt)` and `winner` committed.
    SpeculationResolved {
        /// The owning job.
        job: u64,
        /// Map or reduce.
        phase: Phase,
        /// The raced task.
        task: usize,
        /// The raced attempt number.
        attempt: u32,
        /// Which copy committed.
        winner: RaceWinner,
        /// Resolution timestamp (µs).
        ts: u64,
    },
    /// The finished job's counter snapshot — the exact [`JobMetrics`]
    /// [`Engine::run`](crate::Engine::run) returns, so trace totals always
    /// equal the report totals.
    Counters {
        /// The owning job.
        job: u64,
        /// Snapshot timestamp (µs, at job end).
        ts: u64,
        /// The job's metrics (boxed: the snapshot dwarfs every other
        /// variant, and one is recorded per job, not per event).
        metrics: Box<JobMetrics>,
    },
}

impl TraceEvent {
    /// The job the event belongs to.
    #[must_use]
    pub fn job(&self) -> u64 {
        match self {
            TraceEvent::JobStart { job, .. }
            | TraceEvent::JobEnd { job, .. }
            | TraceEvent::PhaseStart { job, .. }
            | TraceEvent::PhaseEnd { job, .. }
            | TraceEvent::Attempt { job, .. }
            | TraceEvent::SpeculationResolved { job, .. }
            | TraceEvent::Counters { job, .. } => *job,
        }
    }
}

struct SinkInner {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
}

/// A cheap, cloneable handle onto a shared trace buffer.
///
/// Create one with [`TraceSink::recording`], hand clones to engines
/// ([`EngineConfig::with_trace`](crate::EngineConfig::with_trace)) or
/// individual jobs ([`JobSpec::trace`](crate::JobSpec::trace)), then
/// export with [`TraceSink::to_jsonl`] / [`TraceSink::to_chrome_trace`].
/// The default sink is *disabled*: recording into it is a no-op behind a
/// single branch, so un-traced runs pay nothing.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<SinkInner>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("TraceSink(disabled)"),
            Some(i) => write!(f, "TraceSink({} events)", i.events.lock().len()),
        }
    }
}

impl TraceSink {
    /// A sink that records nothing (the default).
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A sink that records every event, timestamped against a fresh
    /// monotonic epoch.
    #[must_use]
    pub fn recording() -> Self {
        Self {
            inner: Some(Arc::new(SinkInner {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this sink records events.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since the sink's epoch (0 for a disabled sink).
    #[must_use]
    pub fn now_micros(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.epoch.elapsed().as_micros() as u64)
    }

    /// Records one event (no-op on a disabled sink).
    pub fn record(&self, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.events.lock().push(event);
        }
    }

    /// Snapshot of all recorded events, in record order.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.events.lock().clone())
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.events.lock().len())
    }

    /// Whether the sink holds no events (always true when disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded events (keeps the epoch).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.events.lock().clear();
        }
    }

    /// Exports the event log as JSON lines: one self-contained JSON object
    /// per event, in record order. Every line parses as standalone JSON
    /// (`python -m json.tool`, `jq`, or [`validate_json`]).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&event_to_json(&ev));
            out.push('\n');
        }
        out
    }

    /// Exports the events as a `chrome://tracing` / Perfetto trace.
    ///
    /// Jobs become processes (`pid` = job id), phases and job spans live
    /// on thread 0, task attempts on one thread per task (map and reduce
    /// tasks share lanes), and each job's counter snapshot becomes a
    /// `ph:"C"` counter sample.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace(&self.events())
    }
}

// ---------------------------------------------------------------------------
// JSON-lines exporter
// ---------------------------------------------------------------------------

/// Escapes a string for inclusion in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn metrics_json_fields(m: &JobMetrics) -> String {
    format!(
        "\"job_name\":\"{}\",\"map_input_records\":{},\"map_output_records\":{},\
         \"shuffle_bytes\":{},\"reduce_input_groups\":{},\"reduce_input_records\":{},\
         \"max_partition_records\":{},\"reduce_output_records\":{},\
         \"map_task_failures\":{},\"reduce_task_failures\":{},\"retries\":{},\
         \"speculative_launched\":{},\"speculative_won\":{},\"spill_runs\":{},\
         \"corrupt_runs\":{},\
         \"map_wall_us\":{},\"sort_wall_us\":{},\"shuffle_wall_us\":{},\"merge_wall_us\":{},\
         \"reduce_wall_us\":{},\"total_wall_us\":{},\"queue_wait_us\":{},\"slot_wall_us\":{},\
         \"input_fingerprint\":{}",
        json_escape(&m.job_name),
        m.map_input_records,
        m.map_output_records,
        m.shuffle_bytes,
        m.reduce_input_groups,
        m.reduce_input_records,
        m.max_partition_records,
        m.reduce_output_records,
        m.map_task_failures,
        m.reduce_task_failures,
        m.retries,
        m.speculative_launched,
        m.speculative_won,
        m.spill_runs,
        m.corrupt_runs,
        m.map_wall.as_micros(),
        m.sort_wall.as_micros(),
        m.shuffle_wall.as_micros(),
        m.merge_wall.as_micros(),
        m.reduce_wall.as_micros(),
        m.total_wall.as_micros(),
        m.queue_wait.as_micros(),
        m.slot_wall.as_micros(),
        m.input_fingerprint,
    )
}

fn event_to_json(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::JobStart { job, name, ts } => format!(
            "{{\"type\":\"job_start\",\"job\":{job},\"name\":\"{}\",\"ts_us\":{ts}}}",
            json_escape(name)
        ),
        TraceEvent::JobEnd { job, ts, error } => match error {
            None => format!("{{\"type\":\"job_end\",\"job\":{job},\"ts_us\":{ts}}}"),
            Some(e) => format!(
                "{{\"type\":\"job_end\",\"job\":{job},\"ts_us\":{ts},\"error\":\"{}\"}}",
                json_escape(e)
            ),
        },
        TraceEvent::PhaseStart { job, phase, ts } => format!(
            "{{\"type\":\"phase_start\",\"job\":{job},\"phase\":\"{phase}\",\"ts_us\":{ts}}}"
        ),
        TraceEvent::PhaseEnd { job, phase, ts } => {
            format!("{{\"type\":\"phase_end\",\"job\":{job},\"phase\":\"{phase}\",\"ts_us\":{ts}}}")
        }
        TraceEvent::Attempt {
            job,
            phase,
            task,
            attempt,
            speculative,
            start,
            end,
            outcome,
        } => format!(
            "{{\"type\":\"attempt\",\"job\":{job},\"phase\":\"{phase}\",\"task\":{task},\
             \"attempt\":{attempt},\"speculative\":{speculative},\"start_us\":{start},\
             \"end_us\":{end},\"outcome\":\"{}\"}}",
            outcome.tag()
        ),
        TraceEvent::SpeculationResolved {
            job,
            phase,
            task,
            attempt,
            winner,
            ts,
        } => format!(
            "{{\"type\":\"speculation_resolved\",\"job\":{job},\"phase\":\"{phase}\",\
             \"task\":{task},\"attempt\":{attempt},\"winner\":\"{}\",\"ts_us\":{ts}}}",
            winner.tag()
        ),
        TraceEvent::Counters { job, ts, metrics } => format!(
            "{{\"type\":\"counters\",\"job\":{job},\"ts_us\":{ts},{}}}",
            metrics_json_fields(metrics)
        ),
    }
}

// ---------------------------------------------------------------------------
// chrome://tracing exporter
// ---------------------------------------------------------------------------

/// Thread lane for a task attempt slice: one lane per task index. Lane 0
/// holds the job and phase spans; map and reduce tasks share lanes 1+
/// (the phases are disjoint in time; only a map task re-executed to
/// repair a corrupt run runs inside the reduce phase).
fn attempt_tid(task: usize) -> usize {
    task + 1
}

fn chrome_trace(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;

    let mut slices: Vec<String> = Vec::new();
    // Metadata: name each job's "process" after the job.
    for ev in events {
        if let TraceEvent::JobStart { job, name, .. } = ev {
            slices.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{job},\"tid\":0,\
                 \"args\":{{\"name\":\"job {job}: {}\"}}}}",
                json_escape(name)
            ));
        }
    }

    // Open-span bookkeeping: (job, phase-or-job) start timestamps.
    let mut job_open: std::collections::HashMap<u64, (String, u64)> =
        std::collections::HashMap::new();
    let mut phase_open: std::collections::HashMap<(u64, Phase), u64> =
        std::collections::HashMap::new();

    for ev in events {
        match ev {
            TraceEvent::JobStart { job, name, ts } => {
                job_open.insert(*job, (name.clone(), *ts));
            }
            TraceEvent::JobEnd { job, ts, error } => {
                if let Some((name, start)) = job_open.remove(job) {
                    let err_arg = error.as_ref().map_or(String::new(), |e| {
                        format!(",\"error\":\"{}\"", json_escape(e))
                    });
                    slices.push(format!(
                        "{{\"name\":\"job:{}\",\"cat\":\"job\",\"ph\":\"X\",\"ts\":{start},\
                         \"dur\":{},\"pid\":{job},\"tid\":0,\"args\":{{\"job\":{job}{err_arg}}}}}",
                        json_escape(&name),
                        ts.saturating_sub(start)
                    ));
                }
            }
            TraceEvent::PhaseStart { job, phase, ts } => {
                phase_open.insert((*job, *phase), *ts);
            }
            TraceEvent::PhaseEnd { job, phase, ts } => {
                if let Some(start) = phase_open.remove(&(*job, *phase)) {
                    slices.push(format!(
                        "{{\"name\":\"{phase}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{start},\
                         \"dur\":{},\"pid\":{job},\"tid\":0,\"args\":{{}}}}",
                        ts.saturating_sub(start)
                    ));
                }
            }
            TraceEvent::Attempt {
                job,
                phase,
                task,
                attempt,
                speculative,
                start,
                end,
                outcome,
            } => {
                let spec = if *speculative { " (spec)" } else { "" };
                slices.push(format!(
                    "{{\"name\":\"{phase} task {task} attempt {attempt}{spec}\",\
                     \"cat\":\"attempt\",\"ph\":\"X\",\"ts\":{start},\"dur\":{},\
                     \"pid\":{job},\"tid\":{},\"args\":{{\"outcome\":\"{}\",\
                     \"speculative\":{speculative}}}}}",
                    end.saturating_sub(*start),
                    attempt_tid(*task),
                    outcome.tag()
                ));
            }
            TraceEvent::SpeculationResolved {
                job,
                phase,
                task,
                attempt,
                winner,
                ts,
            } => {
                slices.push(format!(
                    "{{\"name\":\"speculation resolved: {}\",\"cat\":\"speculation\",\
                     \"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":{job},\"tid\":{},\
                     \"args\":{{\"phase\":\"{phase}\",\"task\":{task},\"attempt\":{attempt}}}}}",
                    winner.tag(),
                    attempt_tid(*task)
                ));
            }
            TraceEvent::Counters { job, ts, metrics } => {
                slices.push(format!(
                    "{{\"name\":\"records\",\"ph\":\"C\",\"ts\":{ts},\"pid\":{job},\"tid\":0,\
                     \"args\":{{\"map_output_records\":{},\"reduce_output_records\":{},\
                     \"shuffle_bytes\":{}}}}}",
                    metrics.map_output_records,
                    metrics.reduce_output_records,
                    metrics.shuffle_bytes
                ));
            }
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, s) in slices.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(out, "{s}");
    }
    out.push_str("\n]}\n");
    out
}

/// Validates that `input` is exactly one well-formed JSON value: the
/// workspace's one JSON reader ([`crate::json`]) with the tree dropped.
/// Used by the exporter round-trip tests and the `mwsj trace-check`
/// command.
///
/// # Errors
/// A message naming the byte offset of the first syntax error, or a depth
/// error beyond [`crate::json::MAX_DEPTH`] levels of nesting.
pub fn validate_json(input: &str) -> Result<(), String> {
    crate::json::parse(input).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_sink_is_a_noop() {
        let s = TraceSink::disabled();
        assert!(!s.is_enabled());
        s.record(TraceEvent::JobStart {
            job: 0,
            name: "j".into(),
            ts: 0,
        });
        assert!(s.is_empty());
        assert_eq!(s.now_micros(), 0);
        assert_eq!(s.to_jsonl(), "");
    }

    #[test]
    fn recording_sink_captures_events_in_order() {
        let s = TraceSink::recording();
        let clone = s.clone();
        s.record(TraceEvent::JobStart {
            job: 0,
            name: "a".into(),
            ts: 1,
        });
        clone.record(TraceEvent::JobEnd {
            job: 0,
            ts: 2,
            error: None,
        });
        assert_eq!(s.len(), 2);
        assert!(matches!(s.events()[1], TraceEvent::JobEnd { .. }));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let s = TraceSink::recording();
        s.record(TraceEvent::JobStart {
            job: 3,
            name: "needs \"escaping\"\n".into(),
            ts: 10,
        });
        s.record(TraceEvent::Attempt {
            job: 3,
            phase: Phase::Map,
            task: 2,
            attempt: 1,
            speculative: true,
            start: 11,
            end: 19,
            outcome: AttemptOutcome::InjectedFault,
        });
        s.record(TraceEvent::Counters {
            job: 3,
            ts: 20,
            metrics: Box::new(JobMetrics {
                job_name: "j".into(),
                map_output_records: 7,
                map_wall: Duration::from_micros(123),
                ..JobMetrics::default()
            }),
        });
        let jsonl = s.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            validate_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        assert!(jsonl.contains("\"outcome\":\"injected-fault\""));
        assert!(jsonl.contains("\"map_output_records\":7"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_matched_spans() {
        let s = TraceSink::recording();
        s.record(TraceEvent::JobStart {
            job: 0,
            name: "wc".into(),
            ts: 0,
        });
        s.record(TraceEvent::PhaseStart {
            job: 0,
            phase: Phase::Map,
            ts: 1,
        });
        s.record(TraceEvent::Attempt {
            job: 0,
            phase: Phase::Map,
            task: 0,
            attempt: 0,
            speculative: false,
            start: 2,
            end: 5,
            outcome: AttemptOutcome::Succeeded,
        });
        s.record(TraceEvent::PhaseEnd {
            job: 0,
            phase: Phase::Map,
            ts: 6,
        });
        s.record(TraceEvent::JobEnd {
            job: 0,
            ts: 7,
            error: None,
        });
        let trace = s.to_chrome_trace();
        validate_json(&trace).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"job:wc\""));
        assert!(trace.contains("\"ph\":\"X\""));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "\"a\\u00e9\"",
            "{\"a\":[1,2,{\"b\":false}]}",
            "  [1, 2, 3]  ",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("rejected `{good}`: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "nul",
            "1 2",
            "\"unterminated",
            "01a",
        ] {
            assert!(validate_json(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn escape_round_trips_through_validator() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode ✓";
        let json = format!("{{\"k\":\"{}\"}}", json_escape(nasty));
        validate_json(&json).unwrap();
    }
}
