use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::fault::{FaultInjector, FaultPlan, JobErrorKind, Phase};
use crate::schedule::{CancelToken, JobRegistration, SlotScheduler};
use crate::trace::{AttemptOutcome, RaceWinner, TraceEvent, TraceSink};
use crate::{Dfs, JobError, JobMetrics, RecordSize, RunFrame};

/// Engine configuration: the size of the task-slot pool, plus an optional
/// fault-injection plan and an engine-wide [`TraceSink`].
///
/// The paper's cluster runs 16 cores with 64 reduce *slots*. Here the
/// slots are the only parallelism setting: every phase of every job starts
/// as many workers as there are free slots (see [`Engine`]), while the
/// number of map tasks ([`Engine::MAP_TASKS`]) and of logical reducers
/// (partitions, chosen per job — the join algorithms use one per grid
/// cell) never depend on it, so neither does any counter.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Faults to inject into every job (`None` runs fault-free). See
    /// [`FaultPlan`].
    pub fault_plan: Option<FaultPlan>,
    /// Engine-wide trace sink: every job records its spans here unless the
    /// [`JobSpec`] carries its own sink. Disabled (free) by default.
    pub trace: TraceSink,
    /// Task slots in the shared [`SlotScheduler`] pool gating concurrent
    /// task execution across *all* jobs this engine runs. `0` (the
    /// default) sizes the pool to the machine's available parallelism, so
    /// a solo job runs at full parallelism and never queues — concurrency
    /// only matters when several jobs are submitted at once.
    pub slots: usize,
}

impl EngineConfig {
    /// Attaches a fault plan.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches an engine-wide trace sink.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the shared task-slot pool size (see [`EngineConfig::slots`]).
    #[must_use]
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }
}

/// Placeholder for a [`JobSpec`] stage that has not been set yet.
///
/// `Engine::run` requires the map, partition and reduce functions, so a
/// spec still carrying `Unset` in one of those slots fails to compile at
/// the submission site rather than at run time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unset;

/// A declarative description of one map-reduce job, built fluently and
/// submitted with [`Engine::run`].
///
/// ```
/// use mwsj_mapreduce::{Engine, EngineConfig, JobSpec};
///
/// let engine = Engine::new(EngineConfig::default());
/// let words = vec!["a b", "b c", "c b"];
/// let (mut counts, _metrics) = engine
///     .run(
///         JobSpec::new("word-count")
///             .reducers(4)
///             .map(|line: &&str, emit| {
///                 for w in line.split(' ') {
///                     emit(w.to_string(), 1u64);
///                 }
///             })
///             .partition(|key: &String, n| key.len() % n)
///             .reduce(|word: &String, ones: &[u64], out| {
///                 out((word.clone(), ones.len() as u64));
///             }),
///         &words,
///     )
///     .unwrap();
/// counts.sort();
/// assert_eq!(counts, vec![("a".into(), 1), ("b".into(), 3), ("c".into(), 2)]);
/// ```
///
/// The closures are type-checked at their builder call (not at the
/// submission site), so their key/value argument types are occasionally
/// not inferable from context — annotate them where the compiler asks (as
/// in the example above). Beyond the three stage functions, the builder
/// carries a per-job [`TraceSink`] ([`JobSpec::trace`]), the scheduling
/// weights and the job's [`CancelToken`]; faults are engine-wide
/// ([`EngineConfig::fault_plan`]).
#[derive(Debug, Clone)]
pub struct JobSpec<MF = Unset, PF = Unset, RF = Unset> {
    name: String,
    reducers: usize,
    map_fn: MF,
    partition_fn: PF,
    reduce_fn: RF,
    trace: TraceSink,
    priority: i32,
    share: u32,
    cancel: CancelToken,
    input_fingerprint: u64,
}

impl JobSpec {
    /// Starts a spec for a job with the given name, one reducer, no
    /// per-job trace sink, default scheduling (priority 0,
    /// share 1) and a fresh, never-cancelled [`CancelToken`].
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            reducers: 1,
            map_fn: Unset,
            partition_fn: Unset,
            reduce_fn: Unset,
            trace: TraceSink::disabled(),
            priority: 0,
            share: 1,
            cancel: CancelToken::new(),
            input_fingerprint: 0,
        }
    }
}

impl<MF, PF, RF> JobSpec<MF, PF, RF> {
    /// Sets the number of logical reducers (shuffle partitions). The
    /// partitioner must route every key below this count.
    #[must_use]
    pub fn reducers(mut self, reducers: usize) -> Self {
        self.reducers = reducers;
        self
    }

    /// Sets the mapper: called once per input record, emitting intermediate
    /// `(key, value)` pairs through `emit`.
    #[must_use]
    pub fn map<I, K, V, F>(self, map_fn: F) -> JobSpec<F, PF, RF>
    where
        F: Fn(&I, &mut dyn FnMut(K, V)) + Sync,
    {
        JobSpec {
            name: self.name,
            reducers: self.reducers,
            map_fn,
            partition_fn: self.partition_fn,
            reduce_fn: self.reduce_fn,
            trace: self.trace,
            priority: self.priority,
            share: self.share,
            cancel: self.cancel,
            input_fingerprint: self.input_fingerprint,
        }
    }

    /// Sets the partitioner: routes a key to a logical reducer; must return
    /// a value below the reducer count, and must depend only on the key so
    /// that equal keys meet at one reducer.
    #[must_use]
    pub fn partition<K, F>(self, partition_fn: F) -> JobSpec<MF, F, RF>
    where
        F: Fn(&K, usize) -> usize + Sync,
    {
        JobSpec {
            name: self.name,
            reducers: self.reducers,
            map_fn: self.map_fn,
            partition_fn,
            reduce_fn: self.reduce_fn,
            trace: self.trace,
            priority: self.priority,
            share: self.share,
            cancel: self.cancel,
            input_fingerprint: self.input_fingerprint,
        }
    }

    /// Sets the reducer: called once per distinct key with every value for
    /// that key in a deterministic order (emit order within each map task,
    /// map tasks in task order — i.e. input order), emitting outputs
    /// through `out`.
    ///
    /// The values arrive as a borrowed slice of the partition the reduce
    /// task merged — the engine never clones them, and a retried or
    /// speculative attempt re-reads the same immutable slice.
    #[must_use]
    pub fn reduce<K, V, O, F>(self, reduce_fn: F) -> JobSpec<MF, PF, F>
    where
        F: Fn(&K, &[V], &mut dyn FnMut(O)) + Sync,
    {
        JobSpec {
            name: self.name,
            reducers: self.reducers,
            map_fn: self.map_fn,
            partition_fn: self.partition_fn,
            reduce_fn,
            trace: self.trace,
            priority: self.priority,
            share: self.share,
            cancel: self.cancel,
            input_fingerprint: self.input_fingerprint,
        }
    }

    /// Records this job's spans into the given sink instead of the
    /// engine-wide one ([`EngineConfig::trace`]). Passing a disabled sink
    /// leaves the engine-wide sink in effect.
    #[must_use]
    pub fn trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the scheduling priority (default 0). When slots are contended,
    /// waiting tasks of a higher-priority job always go first.
    #[must_use]
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the fair-share weight (default 1; clamped to ≥ 1). Among
    /// equal-priority jobs, slots are granted to keep each job's share of
    /// the pool proportional to this weight.
    #[must_use]
    pub fn share(mut self, share: u32) -> Self {
        self.share = share.max(1);
        self
    }

    /// Attaches a cancellation token. The engine checks it at every task
    /// boundary (map chunk claim, reduce partition claim and before each
    /// retry): a tripped token fails the job with
    /// [`JobErrorKind::Cancelled`] within one task granularity, with no
    /// retries and all slots released.
    #[must_use]
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Sets a deadline `timeout` from now on the job's [`CancelToken`] —
    /// past it the job is cancelled with `deadline_exceeded` set.
    #[must_use]
    pub fn deadline(self, timeout: Duration) -> Self {
        self.cancel.deadline_in(timeout);
        self
    }

    /// Attaches the input datasets' stable fingerprint (the submitter's
    /// own, e.g. a hash of each dataset's content hash), surfaced
    /// verbatim in [`JobMetrics::input_fingerprint`] and the trace counters.
    #[must_use]
    pub fn input_fingerprint(mut self, fingerprint: u64) -> Self {
        self.input_fingerprint = fingerprint;
        self
    }
}

/// The map-reduce engine: runs jobs and owns the [`Dfs`]. Each job's
/// [`JobMetrics`] go back to its submitter with its output; the engine
/// keeps no per-run history.
///
/// # Parallelism
///
/// A job's input is cut into [`Engine::MAP_TASKS`] map tasks and its
/// shuffle into [`JobSpec::reducers`] partitions, whatever the slot count.
/// Every phase starts its workers by one rule: the submitting thread, plus
/// one helper per other slot free when the phase starts, never more
/// workers than tasks. Slots change when tasks run, never what a job
/// computes or counts.
///
/// # Fault tolerance
///
/// Each map chunk and each reduce partition executes as a **task
/// attempt**: user code runs under `catch_unwind`, output goes to
/// attempt-local buffers, and only a *successful* attempt commits its
/// buffers and counter deltas — so a retried task never double-emits and
/// the logical counters are byte-identical with or without faults. Tasks
/// are retried up to [`FaultPlan::max_attempts`] times; attempts flagged
/// as stragglers by the [`FaultInjector`] race a speculative duplicate
/// attempt, first successful completion wins. A task that exhausts its
/// attempts fails the job with a [`JobError`] naming the phase and task.
///
/// # Observability
///
/// When a [`TraceSink`] is attached (engine-wide via
/// [`EngineConfig::with_trace`] or per job via [`JobSpec::trace`]), every
/// job records a span tree — job → phase → task attempt, with retry and
/// speculation outcome tags — plus a final counter snapshot equal to the
/// job's [`JobMetrics`]. Tracing never perturbs the logical counters.
pub struct Engine {
    config: EngineConfig,
    /// The distributed file system shared by chained jobs.
    pub dfs: Dfs,
    injector: FaultInjector,
    job_seq: AtomicU64,
    scheduler: Arc<SlotScheduler>,
}

/// Why one task attempt did not commit.
enum AttemptError {
    /// The [`FaultInjector`] failed this attempt; its output was discarded.
    Injected,
    /// User code panicked; the panic was isolated to the attempt.
    Panic(String),
    /// The partitioner routed a key out of range (not retryable).
    BadPartition {
        partition: usize,
        num_partitions: usize,
    },
    /// A committed spill run failed integrity verification when its reduce
    /// task opened it; the producing map attempt is re-executed.
    CorruptRun,
}

impl AttemptError {
    fn message(&self) -> String {
        match self {
            AttemptError::Injected => "injected fault".to_string(),
            AttemptError::Panic(m) => format!("task panicked: {m}"),
            AttemptError::BadPartition { partition, .. } => {
                format!("partitioner returned out-of-range partition {partition}")
            }
            AttemptError::CorruptRun => {
                "corrupt spill run: integrity frame mismatch on shuffle open".to_string()
            }
        }
    }

    fn outcome(&self) -> AttemptOutcome {
        match self {
            AttemptError::Injected => AttemptOutcome::InjectedFault,
            AttemptError::Panic(_) => AttemptOutcome::Panicked,
            AttemptError::BadPartition { .. } => AttemptOutcome::BadPartition,
            AttemptError::CorruptRun => AttemptOutcome::CorruptRun,
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Attempt ids of speculative duplicates get this bit so their fault
/// decisions are independent draws from their primary's.
const SPECULATIVE_BIT: u32 = 1 << 31;

/// Attempt ids of map re-executions triggered by a corrupt spill run get
/// this bit, so the replacement attempt draws fresh fault decisions
/// instead of replaying the (successful) original's.
const REEXEC_BIT: u32 = 1 << 30;

/// Per-job state shared by every task of every phase: the job's identity,
/// its fault, trace, scheduling and cancellation handles, its first
/// failure, and the counters that belong to no single phase. The job is
/// registered with the slot scheduler for as long as this lives.
struct JobCtx<'a> {
    name: &'a str,
    id: u64,
    injector: &'a FaultInjector,
    sink: &'a TraceSink,
    scheduler: &'a SlotScheduler,
    cancel: &'a CancelToken,
    _registration: JobRegistration<'a>,
    /// The first failure wins; `abort` stops every worker at its next
    /// task claim.
    failure: Mutex<Option<JobError>>,
    abort: AtomicBool,
    queue_wait_nanos: AtomicU64,
    slot_nanos: AtomicU64,
    retries: AtomicU64,
    speculative_launched: AtomicU64,
    speculative_won: AtomicU64,
}

impl JobCtx<'_> {
    fn error(&self, phase: Phase, task: usize, attempts: u32, kind: JobErrorKind) -> JobError {
        JobError {
            job: self.name.to_string(),
            phase,
            task,
            attempts,
            kind,
        }
    }

    fn cancelled(&self, phase: Phase, task: usize, attempts: u32) -> JobError {
        let deadline_exceeded = self.cancel.cancelled_by_deadline();
        let kind = JobErrorKind::Cancelled { deadline_exceeded };
        self.error(phase, task, attempts, kind)
    }

    fn fail(&self, err: JobError) {
        self.failure.lock().get_or_insert(err);
        self.abort.store(true, Ordering::SeqCst);
    }

    /// Records the job's end, with `error` when it failed.
    fn end(&self, error: Option<&JobError>) {
        self.sink.record(TraceEvent::JobEnd {
            job: self.id,
            ts: self.sink.now_micros(),
            error: error.map(ToString::to_string),
        });
    }

    /// Runs one phase of the job — the only place tasks are claimed and
    /// slots are held. The caller is the first worker and starts one
    /// scoped helper per *other* slot free when the phase starts, never
    /// more workers than tasks: a lone job takes the pool, a job beside
    /// others brings fewer threads or none. Each worker builds a state with
    /// `init`, claims tasks `0..tasks` in order and runs
    /// `body(&mut state, task)` on each, holding a slot; the first `Err`, a
    /// tripped [`CancelToken`] or a panic stops every worker at its next
    /// claim. Every slot is returned, then a panic reaches the caller.
    /// Queue and slot time is charged to the job. Returns the phase's wall
    /// time and each worker's state, the caller's first.
    fn run_phase<S: Send>(
        &self,
        phase: Phase,
        tasks: usize,
        init: impl Fn() -> S + Sync,
        body: impl Fn(&mut S, usize) -> Result<(), JobError> + Sync,
    ) -> Result<(Duration, Vec<S>), JobError> {
        let start = Instant::now();
        self.sink.record(TraceEvent::PhaseStart {
            job: self.id,
            phase,
            ts: self.sink.now_micros(),
        });
        let next_task = AtomicUsize::new(0);
        let claim = || {
            let mut state = init();
            while !self.abort.load(Ordering::SeqCst) {
                let task = next_task.fetch_add(1, Ordering::Relaxed);
                if task >= tasks {
                    break;
                }
                // Cancellation is checked at every task claim (and again
                // once a contended slot is finally granted), so a
                // cancelled job stops within one task granularity.
                if self.cancel.is_cancelled() {
                    self.fail(self.cancelled(phase, task, 0));
                    break;
                }
                let wait = self.scheduler.acquire(self.id);
                let _slot = HeldSlot(self, Instant::now());
                self.queue_wait_nanos
                    .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
                if self.cancel.is_cancelled() {
                    self.fail(self.cancelled(phase, task, 0));
                } else if !self.abort.load(Ordering::SeqCst) {
                    if let Err(err) = body(&mut state, task) {
                        self.fail(err);
                    }
                }
            }
            state
        };
        // The caller is the first worker, so only helpers are spawned. They
        // are joined by hand — the scope waits for them to finish, not to be
        // gone, before the next phase spawns its own — and a helper's panic
        // is resumed here, after the scope has joined the rest.
        let states = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..self.scheduler.available().min(tasks))
                .map(|_| scope.spawn(claim))
                .collect();
            let mut states = vec![claim()];
            for helper in helpers {
                states.push(helper.join().unwrap_or_else(|p| resume_unwind(p)));
            }
            states
        });
        self.sink.record(TraceEvent::PhaseEnd {
            job: self.id,
            phase,
            ts: self.sink.now_micros(),
        });
        match self.failure.lock().take() {
            Some(err) => Err(err),
            None => Ok((start.elapsed(), states)),
        }
    }
}

/// A slot held since the instant, returned and charged on every path out
/// of its task; a task that panics also aborts its job.
struct HeldSlot<'a>(&'a JobCtx<'a>, Instant);

impl Drop for HeldSlot<'_> {
    fn drop(&mut self) {
        let job = self.0;
        if std::thread::panicking() {
            job.abort.store(true, Ordering::SeqCst);
        }
        job.slot_nanos
            .fetch_add(self.1.elapsed().as_nanos() as u64, Ordering::Relaxed);
        job.scheduler.release(job.id);
    }
}

/// Per-phase context shared by every task of a phase that runs user code
/// (map, reduce): its job and its failure counter.
struct TaskCtx<'a> {
    job: &'a JobCtx<'a>,
    phase: Phase,
    failures: AtomicU64,
}

impl<'a> TaskCtx<'a> {
    fn new(job: &'a JobCtx<'a>, phase: Phase) -> Self {
        Self {
            job,
            phase,
            failures: AtomicU64::new(0),
        }
    }

    /// Runs one attempt of `task`: `body` is the user code, executed under
    /// `catch_unwind` and writing only attempt-local buffers, so whatever
    /// a failed attempt produced is simply dropped. Every attempt leaves
    /// one [`TraceEvent::Attempt`].
    fn attempt<T>(
        &self,
        task: usize,
        attempt: u32,
        body: impl FnOnce() -> Result<T, AttemptError>,
    ) -> Result<T, AttemptError> {
        let (job, sink) = (self.job, self.job.sink);
        // Consulted at the task boundary, applied at completion: the
        // attempt does its (discarded) work first, exercising the
        // partial-output-isolation path.
        let injected = job.injector.should_fail(self.phase, job.id, task, attempt);
        let start = sink.now_micros();
        let result = match catch_unwind(AssertUnwindSafe(body)) {
            Err(payload) => Err(AttemptError::Panic(panic_message(payload))),
            Ok(Ok(_)) if injected => Err(AttemptError::Injected),
            Ok(done) => done,
        };
        sink.record(TraceEvent::Attempt {
            job: job.id,
            phase: self.phase,
            task,
            attempt: attempt & !(SPECULATIVE_BIT | REEXEC_BIT),
            speculative: attempt & SPECULATIVE_BIT != 0,
            start,
            end: sink.now_micros(),
            outcome: result
                .as_ref()
                .map_or_else(AttemptError::outcome, |_| AttemptOutcome::Succeeded),
        });
        result
    }

    /// Runs `task` until an attempt succeeds and returns what it produced
    /// — for the caller to commit, so logical counters count committed
    /// work, never attempts. Failed attempts are retried up to
    /// [`FaultPlan::max_attempts`]; each attempt may race a speculative
    /// duplicate (see [`attempt_with_speculation`]).
    fn run_task<T: Send>(
        &self,
        task: usize,
        run: &(impl Fn(usize, u32) -> Result<T, AttemptError> + Sync),
    ) -> Result<T, JobError> {
        let job = self.job;
        let mut attempt = 0u32;
        loop {
            let failed = match attempt_with_speculation(self, task, attempt, run) {
                Ok(done) => return Ok(done),
                // Not retried: the partitioner is deterministic.
                Err(AttemptError::BadPartition {
                    partition,
                    num_partitions,
                }) => {
                    let kind = JobErrorKind::BadPartitioner {
                        partition,
                        num_partitions,
                    };
                    return Err(job.error(self.phase, task, attempt + 1, kind));
                }
                Err(e) => e,
            };
            self.failures.fetch_add(1, Ordering::Relaxed);
            attempt += 1;
            // A cancelled job is never retried: the retry budget is for
            // task faults, not for work the caller no longer wants.
            if job.cancel.is_cancelled() {
                return Err(job.cancelled(self.phase, task, attempt));
            }
            if attempt >= job.injector.max_attempts() || job.abort.load(Ordering::SeqCst) {
                let kind = JobErrorKind::AttemptsExhausted {
                    last_error: failed.message(),
                };
                return Err(job.error(self.phase, task, attempt, kind));
            }
            job.retries.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs one task attempt, racing a speculative duplicate when the
/// injector flags the attempt as a straggler. First successful completion
/// wins; the loser's output is discarded. `run` must be pure up to its
/// commit (it is: attempts write only attempt-local buffers). The
/// duplicate launches as soon as the primary is flagged.
fn attempt_with_speculation<T, F>(
    ctx: &TaskCtx<'_>,
    task: usize,
    attempt: u32,
    run: &F,
) -> Result<T, AttemptError>
where
    T: Send,
    F: Fn(usize, u32) -> Result<T, AttemptError> + Sync,
{
    let job = ctx.job;
    let Some(delay) = job
        .injector
        .straggler_delay(ctx.phase, job.id, task, attempt)
    else {
        return run(task, attempt);
    };

    // 0 = unclaimed, 1 = speculative committed, 2 = primary committed.
    let claimed = AtomicU8::new(0);
    let (speculative, primary) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            // The primary attempt straggles: it sleeps out its injected
            // delay and only executes if a speculative copy has not
            // finished yet.
            std::thread::sleep(delay);
            if claimed.load(Ordering::SeqCst) != 0 {
                return None;
            }
            let r = run(task, attempt);
            if r.is_ok() {
                let _ = claimed.compare_exchange(0, 2, Ordering::SeqCst, Ordering::SeqCst);
            }
            Some(r)
        });

        job.speculative_launched.fetch_add(1, Ordering::Relaxed);
        let speculative = run(task, attempt | SPECULATIVE_BIT);
        if speculative.is_ok() {
            let _ = claimed.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst);
        }
        let primary = handle.join().unwrap_or(Some(Err(AttemptError::Panic(
            "primary attempt died".into(),
        ))));
        (speculative, primary)
    });

    let (winner, result) = match claimed.load(Ordering::SeqCst) {
        1 => {
            job.speculative_won.fetch_add(1, Ordering::Relaxed);
            (RaceWinner::Speculative, speculative)
        }
        2 => (RaceWinner::Primary, primary.expect("claimed by primary")),
        // Neither copy succeeded: surface the primary's error when it ran
        // (its attempt id is the one the retry loop reasons about).
        _ => (RaceWinner::Neither, primary.unwrap_or(speculative)),
    };
    job.sink.record(TraceEvent::SpeculationResolved {
        job: job.id,
        phase: ctx.phase,
        task,
        attempt,
        winner,
        ts: job.sink.now_micros(),
    });
    result
}

/// One committed map attempt: per-partition *sorted runs* of
/// `(key, value)` plus the attempt's counter deltas. Each non-empty
/// bucket is already sorted by key, equal keys in emit order — the
/// mapper-side sorted spill of a real deployment — and `sort` is the
/// time that sorting took inside the attempt.
struct MapCommit<K, V> {
    buckets: Vec<Vec<(K, V)>>,
    emitted: u64,
    bytes: u64,
    sort: Duration,
}

/// One committed spill run: a sorted `(key, value)` run sealed under a
/// [`RunFrame`] integrity frame at commit, verified by the reduce task
/// that reads it. `task` names the producing map task: that reduce task
/// orders its partition's runs by it, and it is the unit re-executed if
/// verification fails (the reader cannot repair at-rest corruption; only
/// the producer can regenerate the data).
struct SpillRun<K, V> {
    task: usize,
    frame: RunFrame,
    records: Vec<(K, V)>,
}

/// The sorted spill runs committed to one partition: one framed run per
/// map task that routed anything here, in commit order; its reduce task
/// takes it and puts it in task order.
type RunSet<K, V> = Vec<SpillRun<K, V>>;

/// One partition as its reduce task merged it: the distinct keys with the
/// start offset of each key's value range, plus every value laid out
/// contiguously in merged `(key, task, emit)` order. Group `i` owns
/// `values[groups[i].1 .. groups[i + 1].1]` (through the end for the last
/// group), so attempts borrow slices instead of cloning.
struct MergedPartition<K, V> {
    groups: Vec<(K, usize)>,
    values: Vec<V>,
}

impl<K, V> MergedPartition<K, V> {
    /// Calls `f(key, group-values)` once per group, in key order.
    fn for_each_group(&self, mut f: impl FnMut(&K, &[V])) {
        for (i, (key, start)) in self.groups.iter().enumerate() {
            let end = self.groups.get(i + 1).map_or(self.values.len(), |g| g.1);
            f(key, &self.values[*start..end]);
        }
    }
}

/// K-way merges the sorted spill runs of one partition, given in
/// producing-task order, computing group boundaries while unzipping the
/// merged records (no second grouping pass).
///
/// Every run is sorted by key with equal keys in emit order, so a stable
/// sort on the key alone over the runs laid end to end in task order
/// yields `(key, task, emit)` order: the merged order — and therefore
/// every reducer's value stream — is a pure function of the input.
///
/// The merge is the standard library's stable sort: it is run-adaptive —
/// it finds the `k` presorted runs and merges them in `O(n log k)`
/// comparisons, as a hand-written merge cascade would — so the engine
/// carries no merge loop of its own. The other runs are appended into the
/// first one's buffer rather than into a fresh concatenation, which keeps
/// the partition's peak footprint at the records plus the sort's scratch.
/// With zero or one non-empty runs nothing is compared at all.
fn merge_sorted_runs<K: Ord, V>(runs: Vec<Vec<(K, V)>>) -> MergedPartition<K, V> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut runs = runs.into_iter().filter(|r| !r.is_empty());
    let mut records = runs.next().unwrap_or_default();
    if records.len() < total {
        records.reserve_exact(total - records.len());
        for mut run in runs {
            records.append(&mut run);
        }
        records.sort_by(|a, b| a.0.cmp(&b.0));
    }
    let mut out = MergedPartition {
        groups: Vec::new(),
        values: Vec::with_capacity(total),
    };
    for (k, v) in records {
        if out.groups.last().is_none_or(|(g, _)| *g != k) {
            out.groups.push((k, out.values.len()));
        }
        out.values.push(v);
    }
    out
}

impl Engine {
    /// The number of map tasks every job's input is cut into (fewer only
    /// when the input has fewer records): a property of the job, like
    /// Hadoop's split count, so no counter depends on the slot count.
    pub const MAP_TASKS: usize = 8;

    /// Creates an engine with the given configuration.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        let injector = config
            .fault_plan
            .clone()
            .map_or_else(FaultInjector::none, FaultInjector::new);
        let slots = match config.slots {
            0 => std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            n => n,
        };
        Self {
            dfs: Dfs::with_faults(injector.clone()),
            injector,
            job_seq: AtomicU64::new(0),
            scheduler: Arc::new(SlotScheduler::new(slots)),
            config,
        }
    }

    /// The shared fair-share slot scheduler gating task execution across
    /// every job this engine runs (exposed for introspection: pool size,
    /// free slots).
    #[must_use]
    pub fn scheduler(&self) -> &SlotScheduler {
        &self.scheduler
    }

    /// Starts the job `spec` describes: takes its id, registers it with the
    /// [`SlotScheduler`] while the context lives and records its start in
    /// the spec's sink (the engine-wide one when the spec's is disabled).
    fn start_job<'a, MF, PF, RF>(&'a self, spec: &'a JobSpec<MF, PF, RF>) -> JobCtx<'a> {
        let sink = if spec.trace.is_enabled() {
            &spec.trace
        } else {
            &self.config.trace
        };
        let id = self.job_seq.fetch_add(1, Ordering::Relaxed);
        sink.record(TraceEvent::JobStart {
            job: id,
            name: spec.name.clone(),
            ts: sink.now_micros(),
        });
        JobCtx {
            name: &spec.name,
            id,
            injector: &self.injector,
            sink,
            scheduler: &self.scheduler,
            cancel: &spec.cancel,
            _registration: self.scheduler.register(id, spec.priority, spec.share),
            failure: Mutex::new(None),
            abort: AtomicBool::new(false),
            queue_wait_nanos: AtomicU64::new(0),
            slot_nanos: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            speculative_launched: AtomicU64::new(0),
            speculative_won: AtomicU64::new(0),
        }
    }

    /// Runs `tasks` independent tasks as one map-only job — the spec's
    /// name, trace sink, scheduling weights and cancel token apply — and
    /// returns every worker's state, the caller's first. Its workers start
    /// by the rule of every phase: the caller plus one helper per *other*
    /// slot free at that moment, never more workers than tasks. Each
    /// worker builds its state with `init` and runs `body(&mut state,
    /// task)` on each task it claims, holding one slot. A task is not an
    /// attempt: nothing is injected or retried. A panic in `body` returns
    /// every slot, then reaches the caller.
    ///
    /// # Errors
    /// [`JobErrorKind::Cancelled`] if the spec's [`CancelToken`] has
    /// tripped before this returns.
    pub fn run_tasks<S: Send>(
        &self,
        spec: JobSpec,
        tasks: usize,
        init: impl Fn() -> S + Sync,
        body: impl Fn(&mut S, usize) + Sync,
    ) -> Result<Vec<S>, JobError> {
        let job = self.start_job(&spec);
        let body = |state: &mut S, task| {
            body(state, task);
            Ok(())
        };
        let result = match job.run_phase(Phase::Map, tasks, init, body) {
            Ok(_) if spec.cancel.is_cancelled() => Err(job.cancelled(Phase::Map, 0, 0)),
            run => run.map(|(_, states)| states),
        };
        job.end(result.as_ref().err());
        result
    }

    /// Runs the job described by `spec` over `input`, returning the
    /// reducer outputs (in partition order, deterministic order within
    /// each partition) and the job's [`JobMetrics`]. A failed job returns
    /// no metrics.
    ///
    /// * the spec's *mapper* is called once per input record; `emit(k, v)`
    ///   produces an intermediate pair;
    /// * the *partitioner* routes a key to a logical reducer and must
    ///   return a value below [`JobSpec::reducers`]. All pairs with equal
    ///   keys must map to the same partition (guaranteed when the function
    ///   depends only on the key);
    /// * the *reducer* is called once per distinct key with every value
    ///   for that key, in a deterministic order (input order within each
    ///   map task, map tasks in input order).
    ///
    /// The job is two phases — map (sorted runs), then reduce (each task
    /// puts its partition's runs in task order, verifies them, merges
    /// them and runs its attempts) — driven by one task driver that owns
    /// claiming, cancellation and slot accounting; map and reduce tasks go
    /// through one retry loop and one attempt wrapper.
    ///
    /// # Errors
    /// [`JobErrorKind::AttemptsExhausted`] if a task fails more than
    /// [`FaultPlan::max_attempts`] times (injected faults or user-code
    /// panics, which are isolated per attempt);
    /// [`JobErrorKind::BadPartitioner`] if the partitioner routes a key
    /// out of range (not retried — the partitioner is deterministic);
    /// [`JobErrorKind::Cancelled`] if the job's [`CancelToken`] trips
    /// (explicitly or by deadline) — detected at the next task boundary,
    /// never retried, all slots released.
    ///
    /// # Panics
    /// If the spec has zero reducers. A panic in user code inside an
    /// attempt fails only that attempt (above); one outside any attempt —
    /// in a key's `Ord` while a reduce task merges its partition, say —
    /// stops the job's other workers at their next claim, and once every
    /// slot is returned the panic reaches the submitter.
    pub fn run<I, K, V, O, MF, PF, RF>(
        &self,
        spec: JobSpec<MF, PF, RF>,
        input: &[I],
    ) -> Result<(Vec<O>, JobMetrics), JobError>
    where
        I: Sync,
        K: Ord + Send + Sync + RecordSize,
        V: Send + Sync + RecordSize,
        O: Send,
        MF: Fn(&I, &mut dyn FnMut(K, V)) + Sync,
        PF: Fn(&K, usize) -> usize + Sync,
        RF: Fn(&K, &[V], &mut dyn FnMut(O)) + Sync,
    {
        let num_partitions = spec.reducers;
        assert!(num_partitions > 0, "a job needs at least one partition");

        let job = self.start_job(&spec);
        let (injector, sink, id) = (job.injector, job.sink, job.id);
        let job_start = Instant::now();
        let fail = |err: JobError| {
            job.end(Some(&err));
            err
        };
        let mut metrics = JobMetrics {
            job_name: spec.name.clone(),
            map_input_records: input.len() as u64,
            input_fingerprint: spec.input_fingerprint,
            ..JobMetrics::default()
        };
        if spec.cancel.is_cancelled() {
            return Err(fail(job.cancelled(Phase::Map, 0, 0)));
        }

        // ---- Map phase -------------------------------------------------
        // The input is divided into `MAP_TASKS` chunks (fewer for a shorter
        // input); each chunk is one map *task*, executed as one or more
        // attempts. An attempt fills attempt-local buckets (the
        // mapper-side spill files of a real deployment), sorts each bucket
        // by key — the mapper-side sorted spill, parallel across map
        // workers — and commits the sorted buckets as immutable *runs*,
        // together with its counter deltas, only on success. Logical
        // metrics count committed work, not attempts.
        //
        // Each run remembers its producing task and the reduce task orders
        // its partition's runs by it, so reducer value order depends only
        // on the input, not on which worker claimed which chunk first (and
        // not on whether a task was retried) — reruns with equal seeds see
        // byte-identical value streams.
        let chunk_size = input.len().div_ceil(Self::MAP_TASKS).max(1);
        let chunks: Vec<&[I]> = input.chunks(chunk_size).collect();
        let emitted = AtomicU64::new(0);
        let shuffled_bytes = AtomicU64::new(0);
        let sort_nanos = AtomicU64::new(0);
        let spill_runs = AtomicU64::new(0);
        let partitions: Vec<Mutex<RunSet<K, V>>> = (0..num_partitions)
            .map(|_| Mutex::new(Vec::new()))
            .collect();

        let map = TaskCtx::new(&job, Phase::Map);
        let run_map_attempt = |task: usize, attempt: u32| {
            map.attempt(task, attempt, || {
                let mut commit = MapCommit {
                    buckets: (0..num_partitions).map(|_| Vec::new()).collect(),
                    emitted: 0,
                    bytes: 0,
                    sort: Duration::ZERO,
                };
                let mut bad_partition: Option<usize> = None;
                for record in chunks[task] {
                    (spec.map_fn)(record, &mut |k: K, v: V| {
                        if bad_partition.is_some() {
                            return; // drain remaining emits of this record
                        }
                        let p = (spec.partition_fn)(&k, num_partitions);
                        if p >= num_partitions {
                            bad_partition = Some(p);
                            return;
                        }
                        commit.emitted += 1;
                        commit.bytes += (k.size_bytes() + v.size_bytes()) as u64;
                        commit.buckets[p].push((k, v));
                    });
                    if let Some(partition) = bad_partition {
                        return Err(AttemptError::BadPartition {
                            partition,
                            num_partitions,
                        });
                    }
                }
                // Mapper-side sorted spill: a bucket is appended in emit
                // order, so a *stable* sort on the key leaves it in
                // (key, emit) order and the reduce task only merges. The
                // sort runs inside the attempt — parallel across map
                // workers and counted in its work time.
                let st = Instant::now();
                for bucket in &mut commit.buckets {
                    bucket.sort_by(|a, b| a.0.cmp(&b.0));
                }
                commit.sort = st.elapsed();
                Ok(commit)
            })
        };
        (metrics.map_wall, _) = job
            .run_phase(
                Phase::Map,
                chunks.len(),
                || (),
                |(), task| {
                    let commit = map.run_task(task, &run_map_attempt)?;
                    // Atomic commit: each non-empty sorted bucket becomes one
                    // immutable run (moved, never copied — no contended
                    // extend), sealed under an integrity frame that the
                    // reading reduce task verifies. Injected corruption
                    // tampers the stored frame — what a flipped byte looks
                    // like to a reader checking a checksum.
                    let mut runs = 0u64;
                    for (p, bucket) in commit.buckets.into_iter().enumerate() {
                        if !bucket.is_empty() {
                            runs += 1;
                            let mut frame = RunFrame::seal(&bucket);
                            if injector.should_corrupt_run(id, task, p, 0) {
                                frame = frame.tamper();
                            }
                            partitions[p].lock().push(SpillRun {
                                task,
                                frame,
                                records: bucket,
                            });
                        }
                    }
                    // Counted at commit (not per attempt), so a lost
                    // speculative race never double-counts.
                    spill_runs.fetch_add(runs, Ordering::Relaxed);
                    sort_nanos.fetch_add(commit.sort.as_nanos() as u64, Ordering::Relaxed);
                    emitted.fetch_add(commit.emitted, Ordering::Relaxed);
                    shuffled_bytes.fetch_add(commit.bytes, Ordering::Relaxed);
                    Ok(())
                },
            )
            .map_err(&fail)?;
        metrics.sort_wall = Duration::from_nanos(sort_nanos.load(Ordering::Relaxed));
        metrics.spill_runs = spill_runs.load(Ordering::Relaxed);
        metrics.map_output_records = emitted.load(Ordering::Relaxed);
        metrics.reduce_input_records = metrics.map_output_records;
        metrics.shuffle_bytes = shuffled_bytes.load(Ordering::Relaxed);

        // ---- Reduce phase ----------------------------------------------
        // Each partition is one reduce task, and its copy step is the
        // shuffle: the task takes its partition's runs, puts them in
        // producing-task order (commit order is a race) — retries,
        // speculative duplicates and re-executions all commit under their
        // task's index, so this order is a pure function of the input —
        // and checks every run's integrity frame. A mismatch means at-rest
        // corruption, which the reader cannot repair: the *producing* map
        // task is re-executed (fresh fault and corruption draws per
        // generation) and only this partition's bucket of the fresh commit
        // replaces the run. Logical counters (emitted pairs, shuffle
        // bytes, spill runs, sort time) were charged when the original
        // attempt committed and are never re-charged, so recovery leaves
        // the job's counter surface byte-identical to a clean run; only
        // the fault-bookkeeping counters move. Re-executions share the map
        // task's retry budget, so a pathological corruption rate fails the
        // job deterministically instead of looping forever.
        let corrupt_runs = AtomicU64::new(0);
        let regenerate = |task: usize, partition: usize| -> Result<Vec<(K, V)>, JobError> {
            let mut generation = 0u32;
            loop {
                corrupt_runs.fetch_add(1, Ordering::Relaxed);
                let ts = sink.now_micros();
                sink.record(TraceEvent::Attempt {
                    job: id,
                    phase: Phase::Map,
                    task,
                    attempt: generation,
                    speculative: false,
                    start: ts,
                    end: ts,
                    outcome: AttemptOutcome::CorruptRun,
                });
                loop {
                    generation += 1;
                    if generation >= injector.max_attempts() {
                        let kind = JobErrorKind::AttemptsExhausted {
                            last_error: AttemptError::CorruptRun.message(),
                        };
                        return Err(job.error(Phase::Map, task, generation, kind));
                    }
                    match run_map_attempt(task, REEXEC_BIT | generation) {
                        Ok(mut commit) => {
                            let bucket = std::mem::take(&mut commit.buckets[partition]);
                            if injector.should_corrupt_run(id, task, partition, generation) {
                                // The replacement drew corruption too:
                                // detect, charge, and go another round.
                                break;
                            }
                            return Ok(bucket);
                        }
                        Err(_) => {
                            // The re-execution itself failed (injected
                            // fault or panic): an ordinary task failure
                            // consuming ordinary retry budget.
                            map.failures.fetch_add(1, Ordering::Relaxed);
                            job.retries.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        };
        // The task then merges its verified runs once, outside its
        // attempts — so at most one merged partition per slot exists at a
        // time — and every attempt, a retry or a speculative duplicate,
        // borrows each group as a slice of that one immutable buffer:
        // nothing is cloned. The merge is dropped when the task commits.
        let output_slots: Vec<Mutex<Vec<O>>> = (0..num_partitions)
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        let out_count = AtomicU64::new(0);
        let shuffle_nanos = AtomicU64::new(0);
        let merge_nanos = AtomicU64::new(0);
        let group_counter = AtomicU64::new(0);
        let max_partition = AtomicU64::new(0);
        let reduce = TaskCtx::new(&job, Phase::Reduce);
        (metrics.reduce_wall, _) = job
            .run_phase(
                Phase::Reduce,
                num_partitions,
                || (),
                |(), task| {
                    let mut runs = std::mem::take(&mut *partitions[task].lock());
                    let t0 = Instant::now();
                    runs.sort_by_key(|r| r.task);
                    for run in &mut runs {
                        if !run.frame.verify(&run.records) {
                            run.records = regenerate(run.task, task)?;
                        }
                    }
                    let t1 = Instant::now();
                    let merged = merge_sorted_runs(runs.into_iter().map(|r| r.records).collect());
                    shuffle_nanos.fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
                    merge_nanos.fetch_add(t1.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    max_partition.fetch_max(merged.values.len() as u64, Ordering::Relaxed);
                    group_counter.fetch_add(merged.groups.len() as u64, Ordering::Relaxed);
                    let run_attempt = |task: usize, attempt: u32| {
                        reduce.attempt(task, attempt, || {
                            let mut outputs = Vec::new();
                            merged.for_each_group(|key, values| {
                                (spec.reduce_fn)(key, values, &mut |o: O| outputs.push(o));
                            });
                            Ok(outputs)
                        })
                    };
                    let outputs = reduce.run_task(task, &run_attempt)?;
                    out_count.fetch_add(outputs.len() as u64, Ordering::Relaxed);
                    *output_slots[task].lock() = outputs;
                    Ok(())
                },
            )
            .map_err(&fail)?;
        metrics.shuffle_wall = Duration::from_nanos(shuffle_nanos.load(Ordering::Relaxed));
        metrics.corrupt_runs = corrupt_runs.load(Ordering::Relaxed);
        metrics.merge_wall = Duration::from_nanos(merge_nanos.load(Ordering::Relaxed));
        metrics.reduce_input_groups = group_counter.load(Ordering::Relaxed);
        metrics.max_partition_records = max_partition.load(Ordering::Relaxed);
        metrics.reduce_output_records = out_count.load(Ordering::Relaxed);
        metrics.map_task_failures = map.failures.load(Ordering::Relaxed);
        metrics.reduce_task_failures = reduce.failures.load(Ordering::Relaxed);
        metrics.retries = job.retries.load(Ordering::Relaxed);
        metrics.speculative_launched = job.speculative_launched.load(Ordering::Relaxed);
        metrics.speculative_won = job.speculative_won.load(Ordering::Relaxed);
        metrics.total_wall = job_start.elapsed();
        metrics.queue_wait = Duration::from_nanos(job.queue_wait_nanos.load(Ordering::Relaxed));
        metrics.slot_wall = Duration::from_nanos(job.slot_nanos.load(Ordering::Relaxed));
        sink.record(TraceEvent::Counters {
            job: id,
            ts: sink.now_micros(),
            metrics: Box::new(metrics.clone()),
        });
        job.end(None);

        let output = output_slots
            .into_iter()
            .flat_map(parking_lot::Mutex::into_inner)
            .collect();
        Ok((output, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ForcedFault;
    use crate::MetricsReport;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default().with_slots(4))
    }

    fn engine_with(plan: FaultPlan) -> Engine {
        Engine::new(EngineConfig::default().with_slots(4).with_fault_plan(plan))
    }

    #[test]
    fn word_count() {
        let e = engine();
        let input = vec!["a b a", "c b", "a"];
        let (mut out, _) = e
            .run(
                JobSpec::new("wc")
                    .reducers(3)
                    .map(|line: &&str, emit| {
                        for w in line.split(' ') {
                            emit(w.to_string(), 1u32);
                        }
                    })
                    .partition(|k: &String, n| k.as_bytes()[0] as usize % n)
                    .reduce(|k: &String, vs: &[u32], out| out((k.clone(), vs.len()))),
                &input,
            )
            .unwrap();
        out.sort();
        assert_eq!(
            out,
            vec![("a".into(), 3usize), ("b".into(), 2), ("c".into(), 1)]
        );
    }

    #[test]
    fn metrics_count_intermediate_pairs() {
        let e = engine();
        let input: Vec<u32> = (0..100).collect();
        let (_, j) = e
            .run(
                JobSpec::new("double-emit")
                    .reducers(8)
                    .map(|&x: &u32, emit| {
                        emit(x % 8, x);
                        emit((x + 1) % 8, x);
                    })
                    .partition(|&k: &u32, n| k as usize % n)
                    .reduce(|_: &u32, vs: &[u32], out| {
                        for &v in vs {
                            out(v);
                        }
                    }),
                &input,
            )
            .unwrap();
        assert_eq!(j.map_input_records, 100);
        assert_eq!(j.map_output_records, 200);
        assert_eq!(j.reduce_input_records, 200);
        assert_eq!(j.reduce_output_records, 200);
        assert_eq!(j.reduce_input_groups, 8);
        // Keys are u32 (4 bytes) and values u32 (4 bytes).
        assert_eq!(j.shuffle_bytes, 200 * 8);
        // Fault-free run: the fault counters stay zero.
        assert_eq!(j.map_task_failures, 0);
        assert_eq!(j.reduce_task_failures, 0);
        assert_eq!(j.retries, 0);
        assert_eq!(j.speculative_launched, 0);
        // Mapper-side spill: every committed run is counted, and runs are
        // per (task, non-empty partition) so the count is deterministic.
        // 100 records in 13-record chunks is 8 map tasks × ≤ 8 partitions.
        assert!(j.spill_runs > 0);
        assert!(j.spill_runs <= 8 * 8, "spill_runs = {}", j.spill_runs);
    }

    #[test]
    fn all_values_for_a_key_meet_at_one_reducer() {
        let e = engine();
        let input: Vec<u64> = (0..1000).collect();
        let (out, _) = e
            .run(
                JobSpec::new("group")
                    .reducers(16)
                    .map(|&x: &u64, emit| emit(x % 50, x))
                    .partition(|&k: &u64, n| (k as usize) % n)
                    .reduce(|&k: &u64, vs: &[u64], out| {
                        // Every value v with v % 50 == k must be present.
                        let mut got: Vec<u64> = vs.to_vec();
                        got.sort_unstable();
                        let expect: Vec<u64> = (0..1000).filter(|v| v % 50 == k).collect();
                        assert_eq!(got, expect);
                        out(k);
                    }),
                &input,
            )
            .unwrap();
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn reducers_see_keys_in_sorted_order_within_partition() {
        let e = engine();
        let input: Vec<u32> = (0..200).rev().collect();
        let order = Mutex::new(Vec::new());
        let _ = e
            .run(
                JobSpec::new("sorted")
                    .map(|&x: &u32, emit| emit(x, ()))
                    .partition(|_: &u32, _| 0)
                    .reduce(|&k: &u32, _: &[()], _out: &mut dyn FnMut(())| {
                        order.lock().push(k);
                    }),
                &input,
            )
            .unwrap();
        let order = order.into_inner();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn reducer_value_order_deterministic_across_runs() {
        // Runs merged in task order: the value stream of each key group is
        // a pure function of the input, not of racy chunk-claim order.
        let runs: Vec<Vec<(u32, Vec<u32>)>> = (0..8)
            .map(|_| {
                let e = engine();
                let input: Vec<u32> = (0..500).collect();
                let seen = Mutex::new(Vec::new());
                let _ = e
                    .run(
                        JobSpec::new("order")
                            .reducers(4)
                            .map(|&x: &u32, emit| emit(x % 7, x))
                            .partition(|&k: &u32, n| k as usize % n)
                            .reduce(|k: &u32, vs: &[u32], _out: &mut dyn FnMut(())| {
                                seen.lock().push((*k, vs.to_vec()));
                            }),
                        &input,
                    )
                    .unwrap();
                // The four reducers run concurrently, so which group is
                // seen first is a race; each group's stream is not.
                let mut groups = seen.into_inner();
                groups.sort_unstable_by_key(|(k, _)| *k);
                groups
            })
            .collect();
        for run in &runs[1..] {
            assert_eq!(run, &runs[0]);
        }
    }

    #[test]
    fn empty_input_produces_no_output() {
        let e = engine();
        let input: Vec<u32> = Vec::new();
        let (out, metrics): (Vec<u32>, _) = e
            .run(
                JobSpec::new("empty")
                    .reducers(4)
                    .map(|&x: &u32, emit| emit(x, x))
                    .partition(|&k: &u32, n| k as usize % n)
                    .reduce(|&k: &u32, _: &[u32], out| out(k)),
                &input,
            )
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(metrics.map_output_records, 0);
    }

    #[test]
    fn chained_jobs_account_dfs_traffic() {
        let e = engine();
        let input: Vec<u32> = (0..10).collect();
        let even_odd = |&k: &u32, n: usize| k as usize % n;
        let mut report = MetricsReport::default();
        let (stage1, metrics): (Vec<u32>, _) = e
            .run(
                JobSpec::new("stage1")
                    .reducers(2)
                    .map(|&x: &u32, emit| emit(x % 2, x))
                    .partition(even_odd)
                    .reduce(|_: &u32, vs: &[u32], out| {
                        for &v in vs {
                            out(v * 2);
                        }
                    }),
                &input,
            )
            .unwrap();
        report.jobs.push(metrics);
        let stage2_input = e
            .dfs
            .materialize("intermediate", stage1, &mut report)
            .unwrap();
        let (out, metrics): (Vec<u32>, _) = e
            .run(
                JobSpec::new("stage2")
                    .reducers(2)
                    .map(|&x: &u32, emit| emit(x % 2, x))
                    .partition(even_odd)
                    .reduce(|_: &u32, vs: &[u32], out| {
                        for &v in vs {
                            out(v);
                        }
                    }),
                &stage2_input,
            )
            .unwrap();
        report.jobs.push(metrics);
        assert_eq!(out.len(), 10);
        assert_eq!(report.num_jobs(), 2);
        assert_eq!(report.dfs_write_bytes, 40);
        assert_eq!(report.dfs_read_bytes, 40);
    }

    #[test]
    fn bad_partitioner_is_a_job_error() {
        let e = engine();
        let input = vec![1u32];
        let err = e
            .run(
                JobSpec::new("bad")
                    .reducers(2)
                    .map(|&x: &u32, emit| emit(x, x))
                    .partition(|_: &u32, _| 7)
                    .reduce(|&k: &u32, _: &[u32], out: &mut dyn FnMut(u32)| out(k)),
                &input,
            )
            .unwrap_err();
        assert_eq!(err.phase, Phase::Map);
        assert_eq!(
            err.kind,
            JobErrorKind::BadPartitioner {
                partition: 7,
                num_partitions: 2
            }
        );
        assert!(err.to_string().contains("partition_fn returned 7 >= 2"));
        assert_eq!(e.scheduler().available(), e.scheduler().slots());
    }

    #[test]
    fn injected_map_fault_is_retried_transparently() {
        let plan = FaultPlan::none().with_forced(vec![ForcedFault {
            phase: Phase::Map,
            task: 0,
            attempts: 1,
        }]);
        let e = engine_with(plan);
        let input: Vec<u32> = (0..100).collect();
        let (mut out, j) = e
            .run(
                JobSpec::new("retry")
                    .reducers(4)
                    .map(|&x: &u32, emit| emit(x, x))
                    .partition(|&k: &u32, n| k as usize % n)
                    .reduce(|&k: &u32, _: &[u32], out| out(k)),
                &input,
            )
            .unwrap();
        out.sort_unstable();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert_eq!(j.map_task_failures, 1);
        assert_eq!(j.retries, 1);
        // The retried task committed exactly once: no double-emits.
        assert_eq!(j.map_output_records, 100);
    }

    #[test]
    fn exhausted_attempts_surface_a_job_error() {
        let plan = FaultPlan::none()
            .with_forced(vec![ForcedFault {
                phase: Phase::Reduce,
                task: 1,
                attempts: u32::MAX,
            }])
            .with_max_attempts(3);
        let e = engine_with(plan);
        let input: Vec<u32> = (0..10).collect();
        let err = e
            .run(
                JobSpec::new("doomed")
                    .reducers(4)
                    .map(|&x: &u32, emit| emit(x, x))
                    .partition(|&k: &u32, n| k as usize % n)
                    .reduce(|&k: &u32, _: &[u32], out: &mut dyn FnMut(u32)| out(k)),
                &input,
            )
            .unwrap_err();
        assert_eq!(err.phase, Phase::Reduce);
        assert_eq!(err.task, 1);
        assert_eq!(err.attempts, 3);
        let s = err.to_string();
        assert!(
            s.contains("reduce task 1") && s.contains("injected fault"),
            "{s}"
        );
        assert_eq!(e.scheduler().available(), e.scheduler().slots());
    }

    #[test]
    fn user_panic_is_isolated_and_reported() {
        let e = engine();
        let input: Vec<u32> = (0..10).collect();
        let err = e
            .run(
                JobSpec::new("panicky")
                    .reducers(2)
                    .map(|&x: &u32, emit| emit(x, x))
                    .partition(|&k: &u32, n| k as usize % n)
                    .reduce(|&k: &u32, _: &[u32], _out: &mut dyn FnMut(u32)| {
                        if k == 3 {
                            panic!("reducer exploded on key {k}");
                        }
                    }),
                &input,
            )
            .unwrap_err();
        assert_eq!(err.phase, Phase::Reduce);
        assert_eq!(err.attempts, FaultPlan::DEFAULT_MAX_ATTEMPTS);
        assert!(err.to_string().contains("reducer exploded"), "{err}");
        assert_eq!(e.scheduler().available(), e.scheduler().slots());
    }

    #[allow(clippy::type_complexity)]
    fn identity_spec(
        name: &str,
    ) -> JobSpec<
        impl Fn(&u32, &mut dyn FnMut(u32, u32)) + Sync,
        impl Fn(&u32, usize) -> usize + Sync,
        impl Fn(&u32, &[u32], &mut dyn FnMut(u32)) + Sync,
    > {
        JobSpec::new(name)
            .reducers(4)
            .map(|&x: &u32, emit| emit(x, x))
            .partition(|&k: &u32, n| k as usize % n)
            .reduce(|&k: &u32, _: &[u32], out| out(k))
    }

    #[test]
    fn stragglers_launch_speculative_attempts() {
        let mut plan = FaultPlan::chaos(13, 0.0, 1.0);
        plan.straggler_delay = std::time::Duration::from_millis(2);
        let e = engine_with(plan);
        let input: Vec<u32> = (0..200).collect();
        let (out, j) = e.run(identity_spec("slow"), &input).unwrap();
        assert_eq!(out.len(), 200);
        assert!(j.speculative_launched > 0);
        assert!(j.speculative_won <= j.speculative_launched);
        // Speculation must not distort the logical counters.
        assert_eq!(j.map_output_records, 200);
        assert_eq!(j.reduce_output_records, 200);
    }

    /// Every flagged straggler races a duplicate immediately.
    #[test]
    fn every_straggler_races_a_duplicate() {
        let mut plan = FaultPlan::chaos(13, 0.0, 1.0);
        plan.straggler_delay = std::time::Duration::from_micros(100);
        let e = Engine::new(EngineConfig::default().with_slots(1).with_fault_plan(plan));
        let input: Vec<u32> = (0..400).collect();
        let (_, j) = e.run(identity_spec("eager"), &input).unwrap();
        // Every task straggles (rate 1.0) and races a duplicate: 400
        // records in 50-record chunks is 8 map tasks, plus 4 reduce
        // partitions — 12.
        assert_eq!(j.speculative_launched, 12);
    }

    /// Injected spill corruption is detected when the reduce task reading
    /// the run verifies it and repaired by re-executing the producing map
    /// task: output and every logical counter are byte-identical to a
    /// clean run, and only the `corrupt_runs` bookkeeping moves.
    #[test]
    fn corrupt_runs_repaired_with_identical_counters() {
        let input: Vec<u32> = (0..250).collect();
        let clean_engine = engine();
        let (mut expected, clean) = clean_engine.run(identity_spec("job"), &input).unwrap();
        expected.sort_unstable();

        let plan = FaultPlan {
            seed: 41,
            ..FaultPlan::none()
        }
        .with_corruption(0.1);
        let e = engine_with(plan);
        let (mut out, j) = e.run(identity_spec("job"), &input).unwrap();
        out.sort_unstable();
        assert_eq!(out, expected);

        assert!(j.corrupt_runs > 0, "seed 41 must corrupt at least one run");
        assert_eq!(clean.corrupt_runs, 0);
        // Recovery never re-charges committed work: the whole logical
        // counter surface matches the clean run.
        assert_eq!(j.map_input_records, clean.map_input_records);
        assert_eq!(j.map_output_records, clean.map_output_records);
        assert_eq!(j.shuffle_bytes, clean.shuffle_bytes);
        assert_eq!(j.spill_runs, clean.spill_runs);
        assert_eq!(j.reduce_input_groups, clean.reduce_input_groups);
        assert_eq!(j.reduce_input_records, clean.reduce_input_records);
        assert_eq!(j.max_partition_records, clean.max_partition_records);
        assert_eq!(j.reduce_output_records, clean.reduce_output_records);
        assert_eq!(j.input_fingerprint, clean.input_fingerprint);
    }

    /// A corruption rate of 1.0 re-corrupts every replacement run, so the
    /// producing task exhausts its re-execution budget and the job fails
    /// with a corrupt-run error instead of looping forever.
    #[test]
    fn corruption_budget_exhaustion_fails_job() {
        let plan = FaultPlan {
            seed: 7,
            ..FaultPlan::none()
        }
        .with_corruption(1.0)
        .with_max_attempts(3);
        let e = engine_with(plan);
        let input: Vec<u32> = (0..40).collect();
        let err = e.run(identity_spec("doomed"), &input).unwrap_err();
        assert_eq!(err.phase, Phase::Map);
        assert_eq!(err.attempts, 3);
        match &err.kind {
            JobErrorKind::AttemptsExhausted { last_error } => {
                assert!(
                    last_error.contains("corrupt spill run"),
                    "unexpected error: {last_error}"
                );
            }
            other => panic!("expected AttemptsExhausted, got {other:?}"),
        }
        // The shuffle's own failure path returns its slot too.
        assert_eq!(e.scheduler().available(), e.scheduler().slots());
    }

    /// A corrupt run is repaired by the reduce task that reads it, before
    /// that task reduces anything: on one slot, where tasks run in claim
    /// order, every re-execution of map task `t` for partition `p` falls
    /// after partition `p - 1`'s reduce calls and before partition `p`'s
    /// first.
    #[test]
    fn each_reduce_task_repairs_the_runs_it_reads() {
        #[derive(Clone, Copy)]
        enum Call {
            Map(usize),
            Reduce(usize),
        }
        let plan = FaultPlan {
            seed: 41,
            ..FaultPlan::none()
        }
        .with_corruption(0.2)
        .with_max_attempts(8);
        let injector = FaultInjector::new(plan.clone());
        let e = Engine::new(EngineConfig::default().with_slots(1).with_fault_plan(plan));
        let log = Mutex::new(Vec::new());
        // 400 records in 50-record chunks: 8 map tasks, each routing to
        // all 4 partitions.
        let input: Vec<u32> = (0..400).collect();
        let spec = JobSpec::new("repair-order")
            .reducers(4)
            .map(|&x: &u32, emit| {
                log.lock().push(Call::Map(x as usize / 50));
                emit(x, x);
            })
            .partition(|&k: &u32, n| k as usize % n)
            .reduce(|&k: &u32, _: &[u32], out| {
                log.lock().push(Call::Reduce(k as usize % 4));
                out(k);
            });
        let (_, j) = e.run(spec, &input).unwrap();
        assert!(j.corrupt_runs > 0, "seed 41 must corrupt at least one run");

        // After the map phase's 400 calls, map calls that come before
        // partition `p`'s first reduce call repair partition `p`.
        let log = log.into_inner();
        let mut repaired: Vec<Vec<usize>> = vec![Vec::new(); 5];
        let mut reading = 0;
        for call in &log[input.len()..] {
            match *call {
                Call::Map(t) => repaired[reading].push(t),
                Call::Reduce(p) => {
                    assert!(p + 1 >= reading, "partition {p} reduced out of order");
                    reading = p + 1;
                }
            }
        }
        for tasks in &mut repaired {
            tasks.dedup();
        }
        let expected: Vec<Vec<usize>> = (0..5)
            .map(|p| {
                (0..8)
                    .filter(|&t| p < 4 && injector.should_corrupt_run(0, t, p, 0))
                    .collect()
            })
            .collect();
        assert!(
            expected[1..].iter().any(|tasks| !tasks.is_empty()),
            "seed 41 must corrupt a run past partition 0"
        );
        assert_eq!(repaired, expected);
    }

    /// Runs given in task order as `(key, value)` merge to a stable
    /// key-only sort of their concatenation — equal keys keep task order,
    /// then emit order — with group boundaries exactly partitioning that
    /// sequence: for zero, one and many runs, including empty ones.
    #[test]
    fn kway_merge_matches_global_sort() {
        let cases: Vec<Vec<Vec<(u32, u32)>>> = vec![
            vec![],
            vec![vec![]],
            vec![vec![(1, 10), (1, 11), (2, 12)]],
            vec![
                vec![(1, 10), (2, 11)],
                vec![(1, 12)],
                vec![],
                vec![(1, 14), (3, 15)],
                vec![(0, 18), (1, 19), (9, 20)],
            ],
            // One key spread over every run: its values must come out in
            // task order, emit order within a task.
            vec![
                vec![(5, 0), (6, 1)],
                vec![(5, 10), (5, 11), (5, 12)],
                vec![(4, 20), (5, 21)],
                vec![(5, 30), (5, 31), (7, 32)],
            ],
        ];
        for runs in cases {
            let mut flat: Vec<(u32, u32)> = runs.iter().flatten().copied().collect();
            flat.sort_by_key(|&(k, _)| k); // stable: equal keys keep run order
            let merged = merge_sorted_runs(runs);
            assert_eq!(
                merged.values,
                flat.iter().map(|t| t.1).collect::<Vec<_>>(),
                "merged value stream must equal the stable key-only sort"
            );
            let mut expect_groups: Vec<(u32, usize)> = Vec::new();
            for (i, (k, _)) in flat.iter().enumerate() {
                if expect_groups.last().is_none_or(|(g, _)| g != k) {
                    expect_groups.push((*k, i));
                }
            }
            assert_eq!(merged.groups, expect_groups);
        }
    }

    /// A per-job sink overrides the engine-wide sink; a disabled per-job
    /// sink leaves the engine-wide sink in effect.
    #[test]
    fn trace_sink_selection() {
        let engine_sink = TraceSink::recording();
        let e = Engine::new(
            EngineConfig::default()
                .with_slots(2)
                .with_trace(engine_sink.clone()),
        );
        let input: Vec<u32> = (0..50).collect();

        let job_sink = TraceSink::recording();
        let _ = e
            .run(identity_spec("per-job").trace(job_sink.clone()), &input)
            .unwrap();
        assert!(!job_sink.is_empty(), "per-job sink must capture the job");
        assert!(engine_sink.is_empty(), "engine sink must not see the job");

        let _ = e.run(identity_spec("engine-wide"), &input).unwrap();
        assert!(!engine_sink.is_empty(), "engine sink must capture the job");
    }

    /// Jobs racing for a 2-slot pool produce the same logical counters as
    /// a solo run: slot scheduling changes *when* tasks run, never what
    /// they compute.
    #[test]
    fn concurrent_jobs_match_solo_counters() {
        let solo_engine = engine();
        let input: Vec<u32> = (0..300).collect();
        let (_, solo) = solo_engine.run(identity_spec("solo"), &input).unwrap();

        let e = Engine::new(EngineConfig::default().with_slots(2));
        let jobs: Vec<JobMetrics> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let (e, input) = (&e, &input);
                    s.spawn(move || {
                        e.run(identity_spec(&format!("contender-{i}")), input)
                            .unwrap()
                            .1
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(jobs.len(), 4);
        for j in &jobs {
            assert_eq!(j.map_input_records, solo.map_input_records);
            assert_eq!(j.map_output_records, solo.map_output_records);
            assert_eq!(j.reduce_input_records, solo.reduce_input_records);
            assert_eq!(j.reduce_output_records, solo.reduce_output_records);
            assert_eq!(j.reduce_input_groups, solo.reduce_input_groups);
            assert_eq!(j.shuffle_bytes, solo.shuffle_bytes);
            assert_eq!(j.spill_runs, solo.spill_runs);
        }
        // Every slot went back to the pool.
        assert_eq!(e.scheduler().available(), e.scheduler().slots());
    }

    /// A token cancelled before submission fails the job up front, without
    /// running any tasks, and the error names the job and the source.
    #[test]
    fn pre_cancelled_job_fails_before_any_task() {
        let e = engine();
        let token = CancelToken::new();
        token.cancel();
        let input: Vec<u32> = (0..50).collect();
        let err = e
            .run(identity_spec("doomed").cancel(token), &input)
            .unwrap_err();
        assert_eq!(
            err.kind,
            JobErrorKind::Cancelled {
                deadline_exceeded: false
            }
        );
        assert!(err.to_string().contains("job `doomed`"));
        assert!(err.to_string().contains("by caller"));
        assert_eq!(err.task, 0);
        assert_eq!(err.attempts, 0, "no attempt may have launched");
        assert_eq!(e.scheduler().available(), e.scheduler().slots());
    }

    /// Cancelling from another thread mid-map aborts the job promptly with
    /// a `Cancelled` error (not a retried task fault) and releases slots.
    #[test]
    fn mid_run_cancel_aborts_job() {
        let e = engine();
        let token = CancelToken::new();
        let input: Vec<u32> = (0..4_000).collect();
        let spec = JobSpec::new("long-haul")
            .reducers(4)
            .cancel(token.clone())
            .map(|&x: &u32, emit| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                emit(x, x)
            })
            .partition(|&k: &u32, n| k as usize % n)
            .reduce(|&k: &u32, _: &[u32], out| out(k));
        let err = std::thread::scope(|s| {
            let handle = s.spawn(|| e.run(spec, &input));
            std::thread::sleep(std::time::Duration::from_millis(5));
            token.cancel();
            handle.join().unwrap().unwrap_err()
        });
        assert_eq!(
            err.kind,
            JobErrorKind::Cancelled {
                deadline_exceeded: false
            }
        );
        assert_eq!(e.scheduler().available(), e.scheduler().slots());
    }

    /// A token tripped by the mapper on the last input record is seen by
    /// no map claim (the phase has none left): the job fails at the
    /// reduce phase's first claim, before that task opens (shuffles) its
    /// partition or runs an attempt, and the map phase's slot is already
    /// back in the pool.
    #[test]
    fn cancel_after_the_last_map_claim_fails_at_the_shuffle() {
        let sink = TraceSink::recording();
        let e = Engine::new(EngineConfig::default().with_slots(1));
        let token = CancelToken::new();
        let input: Vec<u32> = (0..40).collect();
        let spec = JobSpec::new("late-cancel")
            .reducers(4)
            .cancel(token.clone())
            .trace(sink.clone())
            .map(|&x: &u32, emit| {
                if x == 39 {
                    token.cancel();
                }
                emit(x, x);
            })
            .partition(|&k: &u32, n| k as usize % n)
            .reduce(|&k: &u32, _: &[u32], out: &mut dyn FnMut(u32)| out(k));
        let err = e.run(spec, &input).unwrap_err();
        assert_eq!(
            err.kind,
            JobErrorKind::Cancelled {
                deadline_exceeded: false
            }
        );
        assert_eq!((err.phase, err.task, err.attempts), (Phase::Reduce, 0, 0));
        let events = sink.events();
        let phases: Vec<Phase> = events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::PhaseStart { phase, .. } => Some(*phase),
                _ => None,
            })
            .collect();
        assert_eq!(phases, vec![Phase::Map, Phase::Reduce]);
        let attempts: Vec<(Phase, AttemptOutcome)> = events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Attempt { phase, outcome, .. } => Some((*phase, *outcome)),
                _ => None,
            })
            .collect();
        // Every map task committed — 40 records in 5-record chunks is 8 —
        // and nothing ran after the cancel.
        assert_eq!(attempts, vec![(Phase::Map, AttemptOutcome::Succeeded); 8]);
        assert_eq!(e.scheduler().available(), e.scheduler().slots());
    }

    /// A deadline set through the spec builder trips the token mid-run and
    /// the error reports `deadline_exceeded`.
    #[test]
    fn deadline_cancels_and_is_attributed() {
        let e = engine();
        let input: Vec<u32> = (0..4_000).collect();
        let err = e
            .run(
                JobSpec::new("overdue")
                    .reducers(4)
                    .deadline(std::time::Duration::from_millis(2))
                    .map(|&x: &u32, emit| {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        emit(x, x)
                    })
                    .partition(|&k: &u32, n| k as usize % n)
                    .reduce(|&k: &u32, _: &[u32], out| out(k)),
                &input,
            )
            .unwrap_err();
        assert_eq!(
            err.kind,
            JobErrorKind::Cancelled {
                deadline_exceeded: true
            }
        );
        assert!(err.to_string().contains("by deadline"));
        assert_eq!(e.scheduler().available(), e.scheduler().slots());
    }

    /// Slot occupancy is metered: a completed job reports time spent
    /// holding slots, and a solo job on an auto-sized pool never queues.
    #[test]
    fn slot_accounting_reaches_metrics() {
        let e = engine();
        let input: Vec<u32> = (0..500).collect();
        let (_, j) = e.run(identity_spec("metered"), &input).unwrap();
        assert!(
            j.slot_wall > Duration::ZERO,
            "tasks must be metered while holding slots"
        );
    }

    /// The thread that submits is the first worker: a one-worker job
    /// spawns nothing, so every map and reduce call runs on the caller.
    #[test]
    fn a_one_worker_job_runs_every_task_on_the_submitting_thread() {
        let e = Engine::new(EngineConfig::default().with_slots(1));
        let seen = Mutex::new(std::collections::HashSet::new());
        let here = || {
            seen.lock().insert(std::thread::current().id());
        };
        let input: Vec<u32> = (0..200).collect();
        let spec = JobSpec::new("solo")
            .reducers(4)
            .map(|&x: &u32, emit| {
                here();
                emit(x, x);
            })
            .partition(|&k: &u32, n| k as usize % n)
            .reduce(|&k: &u32, _: &[u32], out| {
                here();
                out(k);
            });
        assert_eq!(e.run(spec, &input).unwrap().0.len(), 200);
        let seen = seen.into_inner();
        assert_eq!(seen.len(), 1, "{seen:?}");
        assert!(seen.contains(&std::thread::current().id()));
        assert_eq!(e.scheduler().available(), e.scheduler().slots());
    }
}
