//! Fault model: deterministic, seeded fault injection for the engine.
//!
//! Hadoop 0.20's defining substrate property — beyond shuffle semantics —
//! is fault tolerance: failed task attempts are re-executed and stragglers
//! are speculatively re-run, and a job's *logical* counters reflect
//! committed work, not attempts. A [`FaultPlan`] describes a synthetic
//! failure regime (per-phase task-failure probabilities, straggler
//! delays, transient DFS read failures), and the [`FaultInjector`] turns
//! it into **deterministic** per-attempt decisions: every decision is a
//! pure hash of `(seed, phase, job, task, attempt)`, so a given plan
//! injects the same faults into the same tasks regardless of thread
//! scheduling — the property the chaos equivalence tests rely on.

use std::time::Duration;

/// Which phase of a job a task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// A map task (one input chunk).
    Map,
    /// A reduce task (one shuffle partition).
    Reduce,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Map => f.write_str("map"),
            Phase::Reduce => f.write_str("reduce"),
        }
    }
}

/// A forced task failure: the first `attempts` attempts of the given task
/// fail, independent of the random rates. Used by tests that need an
/// exact failure schedule (`FaultPlan::forced`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForcedFault {
    /// The phase of the targeted task.
    pub phase: Phase,
    /// Task index within the phase (chunk index or partition index).
    pub task: usize,
    /// How many leading attempts fail. `u32::MAX` fails every attempt,
    /// forcing the task past `max_attempts`.
    pub attempts: u32,
}

/// A seeded description of the faults to inject into every job an engine
/// runs.
///
/// All probabilities are per *task attempt* and must lie in `[0, 1]`.
/// The default plan injects nothing and allows [`FaultPlan::DEFAULT_MAX_ATTEMPTS`]
/// attempts per task, mirroring Hadoop's `mapred.map.max.attempts = 4`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Probability that a map task attempt fails.
    pub map_failure_rate: f64,
    /// Probability that a reduce task attempt fails.
    pub reduce_failure_rate: f64,
    /// Probability that a task attempt straggles (triggering a speculative
    /// duplicate attempt).
    pub straggler_rate: f64,
    /// Upper bound on the injected straggler delay; the actual delay is
    /// drawn uniformly from `(0, straggler_delay]`.
    pub straggler_delay: Duration,
    /// Probability that one DFS read attempt fails transiently.
    pub dfs_read_failure_rate: f64,
    /// Probability that a committed spill run is corrupted at rest (its
    /// [`RunFrame`](crate::RunFrame) checksum is tampered after commit, as
    /// a flipped byte on a real disk would). The shuffle detects the
    /// corruption when it verifies the frame and re-executes the
    /// *producing* map task, bounded by [`FaultPlan::max_attempts`]
    /// re-executions per run.
    pub spill_corruption_rate: f64,
    /// Maximum attempts per task before the job fails with a
    /// [`JobError`](crate::JobError).
    pub max_attempts: u32,
    /// Exact failures to inject on top of the random rates.
    pub forced: Vec<ForcedFault>,
}

impl FaultPlan {
    /// Hadoop's default `mapred.{map,reduce}.max.attempts`.
    pub const DEFAULT_MAX_ATTEMPTS: u32 = 4;

    /// A plan injecting nothing (the default).
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            map_failure_rate: 0.0,
            reduce_failure_rate: 0.0,
            straggler_rate: 0.0,
            straggler_delay: Duration::from_millis(4),
            dfs_read_failure_rate: 0.0,
            spill_corruption_rate: 0.0,
            max_attempts: Self::DEFAULT_MAX_ATTEMPTS,
            forced: Vec::new(),
        }
    }

    /// A chaos plan: map, reduce and DFS-read attempts all fail with
    /// probability `fault_rate`; attempts straggle with probability
    /// `straggler_rate`.
    #[must_use]
    pub fn chaos(seed: u64, fault_rate: f64, straggler_rate: f64) -> Self {
        Self {
            seed,
            map_failure_rate: fault_rate,
            reduce_failure_rate: fault_rate,
            straggler_rate,
            dfs_read_failure_rate: fault_rate,
            ..Self::none()
        }
    }

    /// Adds exact forced failures (see [`ForcedFault`]).
    #[must_use]
    pub fn with_forced(mut self, forced: Vec<ForcedFault>) -> Self {
        self.forced = forced;
        self
    }

    /// Overrides the attempt budget.
    #[must_use]
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        assert!(max_attempts > 0, "a task needs at least one attempt");
        self.max_attempts = max_attempts;
        self
    }

    /// Sets the at-rest spill-run corruption probability (see
    /// [`FaultPlan::spill_corruption_rate`]).
    #[must_use]
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.spill_corruption_rate = rate;
        self
    }

    /// Panics unless every rate is a probability and the attempt budget
    /// is positive. Builders call this; call it directly after filling
    /// fields by hand.
    pub fn validate(&self) {
        for (name, p) in [
            ("map_failure_rate", self.map_failure_rate),
            ("reduce_failure_rate", self.reduce_failure_rate),
            ("straggler_rate", self.straggler_rate),
            ("dfs_read_failure_rate", self.dfs_read_failure_rate),
            ("spill_corruption_rate", self.spill_corruption_rate),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be in [0, 1], got {p}"
            );
        }
        assert!(self.max_attempts > 0, "a task needs at least one attempt");
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Turns a [`FaultPlan`] into deterministic per-attempt decisions.
///
/// Stateless and cheap: every query hashes its coordinates with the plan
/// seed (SplitMix64 finalizer), so decisions do not depend on thread
/// scheduling or on how many *other* decisions were made — two runs with
/// the same plan fail the same attempts of the same tasks.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    plan: Option<FaultPlan>,
}

/// Decision domains, kept distinct so e.g. the failure and straggler
/// decisions of one attempt are independent draws.
const DOMAIN_FAIL: u64 = 0x1;
const DOMAIN_STRAGGLE: u64 = 0x2;
const DOMAIN_DELAY: u64 = 0x3;
const DOMAIN_DFS: u64 = 0x4;
const DOMAIN_CORRUPT: u64 = 0x5;

impl FaultInjector {
    /// An injector that never injects anything.
    #[must_use]
    pub fn none() -> Self {
        Self { plan: None }
    }

    /// An injector executing the given plan. Panics if the plan's rates
    /// are not probabilities.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate();
        Self { plan: Some(plan) }
    }

    /// The plan's attempt budget ([`FaultPlan::DEFAULT_MAX_ATTEMPTS`] when
    /// no plan is set).
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.plan
            .as_ref()
            .map_or(FaultPlan::DEFAULT_MAX_ATTEMPTS, |p| p.max_attempts)
    }

    /// Whether any fault can ever fire (used to skip bookkeeping on the
    /// fault-free fast path).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.plan.as_ref().is_some_and(|p| {
            p.map_failure_rate > 0.0
                || p.reduce_failure_rate > 0.0
                || p.straggler_rate > 0.0
                || p.dfs_read_failure_rate > 0.0
                || p.spill_corruption_rate > 0.0
                || !p.forced.is_empty()
        })
    }

    /// Should this task attempt fail?
    #[must_use]
    pub fn should_fail(&self, phase: Phase, job: u64, task: usize, attempt: u32) -> bool {
        let Some(plan) = &self.plan else { return false };
        if plan
            .forced
            .iter()
            .any(|f| f.phase == phase && f.task == task && attempt < f.attempts)
        {
            return true;
        }
        let rate = match phase {
            Phase::Map => plan.map_failure_rate,
            Phase::Reduce => plan.reduce_failure_rate,
        };
        rate > 0.0 && unit(mix(plan.seed, DOMAIN_FAIL, phase, job, task, attempt)) < rate
    }

    /// Should this task attempt straggle — and if so, by how much?
    #[must_use]
    pub fn straggler_delay(
        &self,
        phase: Phase,
        job: u64,
        task: usize,
        attempt: u32,
    ) -> Option<Duration> {
        let plan = self.plan.as_ref()?;
        if plan.straggler_rate == 0.0
            || unit(mix(plan.seed, DOMAIN_STRAGGLE, phase, job, task, attempt))
                >= plan.straggler_rate
        {
            return None;
        }
        let u = unit(mix(plan.seed, DOMAIN_DELAY, phase, job, task, attempt));
        Some(plan.straggler_delay.mul_f64(u.max(0.1)))
    }

    /// Should this DFS read attempt fail transiently? `read_seq` is the
    /// DFS-wide read sequence number (reads happen in driver code between
    /// jobs, so the sequence is deterministic).
    #[must_use]
    pub fn should_fail_dfs_read(&self, read_seq: u64, attempt: u32) -> bool {
        let Some(plan) = &self.plan else { return false };
        plan.dfs_read_failure_rate > 0.0
            && unit(mix(plan.seed, DOMAIN_DFS, Phase::Map, read_seq, 0, attempt))
                < plan.dfs_read_failure_rate
    }

    /// Should the spill run that map task `task` committed to `partition`
    /// be corrupted at rest? `generation` is 0 for the original commit and
    /// increments once per corruption-triggered re-execution of the
    /// producing task, so a re-executed run draws fresh corruption
    /// decisions (and a pathological rate eventually exhausts the budget
    /// deterministically).
    #[must_use]
    pub fn should_corrupt_run(
        &self,
        job: u64,
        task: usize,
        partition: usize,
        generation: u32,
    ) -> bool {
        let Some(plan) = &self.plan else { return false };
        plan.spill_corruption_rate > 0.0
            && unit(mix_words(
                plan.seed,
                &[
                    DOMAIN_CORRUPT,
                    job,
                    task as u64,
                    partition as u64,
                    u64::from(generation),
                ],
            )) < plan.spill_corruption_rate
    }
}

/// Hashes decision coordinates into 64 bits (SplitMix64 finalizer over a
/// running combination).
fn mix(seed: u64, domain: u64, phase: Phase, job: u64, task: usize, attempt: u32) -> u64 {
    mix_words(
        seed,
        &[
            domain,
            match phase {
                // ASCII "map" / "red", as distinct phase tags.
                Phase::Map => 0x006d_6170,
                Phase::Reduce => 0x0072_6564,
            },
            job,
            task as u64,
            u64::from(attempt),
        ],
    )
}

/// The general form of [`mix`]: folds an arbitrary word sequence through
/// the SplitMix64 finalizer.
fn mix_words(seed: u64, words: &[u64]) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for &word in words {
        h ^= word.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// Maps 64 bits to `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Decision domains for network faults (disjoint from the task-fault
/// domains so a plan reusing one seed draws independently).
const DOMAIN_NET_KIND: u64 = 0x10;
const DOMAIN_NET_POINT: u64 = 0x11;
const DOMAIN_NET_DELAY: u64 = 0x12;

/// A seeded description of the *network* faults to inject into a serving
/// tier, the service-side twin of [`FaultPlan`].
///
/// All probabilities are per I/O operation (one buffered read or one
/// framed write) and must lie in `[0, 1]`. Decisions are a pure hash of
/// `(seed, connection, operation)`, so a given plan tears the same frames
/// of the same connections regardless of thread scheduling — service
/// chaos tests are as reproducible as engine chaos tests.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Probability that a framed write is torn: only a prefix reaches the
    /// peer before the connection drops.
    pub torn_frame_rate: f64,
    /// Probability that an operation stalls mid-flight for up to
    /// [`NetFaultPlan::stall`] before completing.
    pub stall_rate: f64,
    /// Probability that the connection drops abruptly before the
    /// operation.
    pub disconnect_rate: f64,
    /// Probability that one inbound byte is flipped in flight (the peer
    /// receives a corrupted request).
    pub corrupt_rate: f64,
    /// Probability that a read turns slow-loris: bytes trickle in with an
    /// injected delay per chunk.
    pub slow_loris_rate: f64,
    /// Upper bound on injected stall / slow-loris delays; actual delays
    /// are drawn uniformly from `(0, stall]`.
    pub stall: Duration,
}

/// One deterministic network-fault decision (see [`NetFaultPlan::decide`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The operation proceeds untouched.
    None,
    /// Write only a prefix of the frame, then drop the connection.
    TornFrame,
    /// Sleep for the given duration mid-operation, then proceed.
    Stall(Duration),
    /// Drop the connection before the operation.
    Disconnect,
    /// Flip one byte of the payload in flight.
    CorruptByte,
    /// Trickle the read, sleeping the given duration per chunk.
    SlowLoris(Duration),
}

impl NetFaultPlan {
    /// A plan injecting nothing.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            torn_frame_rate: 0.0,
            stall_rate: 0.0,
            disconnect_rate: 0.0,
            corrupt_rate: 0.0,
            slow_loris_rate: 0.0,
            stall: Duration::from_millis(20),
        }
    }

    /// A chaos plan: every fault kind fires with probability `rate`.
    #[must_use]
    pub fn chaos(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            torn_frame_rate: rate,
            stall_rate: rate,
            disconnect_rate: rate,
            corrupt_rate: rate,
            slow_loris_rate: rate,
            ..Self::none()
        }
    }

    /// Panics unless every rate is a probability.
    pub fn validate(&self) {
        for (name, p) in [
            ("torn_frame_rate", self.torn_frame_rate),
            ("stall_rate", self.stall_rate),
            ("disconnect_rate", self.disconnect_rate),
            ("corrupt_rate", self.corrupt_rate),
            ("slow_loris_rate", self.slow_loris_rate),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} must be in [0, 1], got {p}"
            );
        }
    }

    /// Whether any fault can ever fire.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.torn_frame_rate > 0.0
            || self.stall_rate > 0.0
            || self.disconnect_rate > 0.0
            || self.corrupt_rate > 0.0
            || self.slow_loris_rate > 0.0
    }

    /// The fault (at most one) injected into operation `op` of connection
    /// `conn`. Kinds are drawn in a fixed precedence order (disconnect,
    /// torn frame, corrupt byte, slow-loris, stall) from one uniform draw,
    /// so raising one rate never changes another kind's decisions.
    #[must_use]
    pub fn decide(&self, conn: u64, op: u64) -> NetFault {
        if !self.is_active() {
            return NetFault::None;
        }
        let u = unit(mix_words(self.seed, &[DOMAIN_NET_KIND, conn, op]));
        let mut threshold = 0.0;
        for (rate, fault) in [
            (self.disconnect_rate, NetFault::Disconnect),
            (self.torn_frame_rate, NetFault::TornFrame),
            (self.corrupt_rate, NetFault::CorruptByte),
            (
                self.slow_loris_rate,
                NetFault::SlowLoris(self.delay(conn, op)),
            ),
            (self.stall_rate, NetFault::Stall(self.delay(conn, op))),
        ] {
            threshold += rate;
            if u < threshold {
                return fault;
            }
        }
        NetFault::None
    }

    /// The byte offset a torn frame is cut at / a corrupt byte lands on,
    /// in `0..len` (0 when the payload is empty).
    #[must_use]
    pub fn fault_point(&self, conn: u64, op: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        let bits = mix_words(self.seed, &[DOMAIN_NET_POINT, conn, op]);
        (((u128::from(bits) * len as u128) >> 64) as u64) as usize
    }

    fn delay(&self, conn: u64, op: u64) -> Duration {
        let u = unit(mix_words(self.seed, &[DOMAIN_NET_DELAY, conn, op]));
        self.stall.mul_f64(u.max(0.05))
    }
}

/// A failed map-reduce job: the task that gave out, after how many
/// attempts, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct JobError {
    /// The job's name.
    pub job: String,
    /// The phase of the failed task.
    pub phase: Phase,
    /// Index of the failed task (chunk index for map, partition index for
    /// reduce).
    pub task: usize,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// What went wrong.
    pub kind: JobErrorKind,
}

/// The failure modes a job can surface.
#[derive(Debug, Clone, PartialEq)]
pub enum JobErrorKind {
    /// Every allowed attempt of the task failed; carries the last
    /// attempt's error (panic message or injected-fault marker).
    AttemptsExhausted {
        /// The last attempt's failure message.
        last_error: String,
    },
    /// The partitioner routed a key outside `0..num_partitions`. Not
    /// retried: the partitioner is deterministic, so every attempt would
    /// fail identically.
    BadPartitioner {
        /// The out-of-range partition the partitioner returned.
        partition: usize,
        /// The number of partitions the job was configured with.
        num_partitions: usize,
    },
    /// The job's [`CancelToken`](crate::CancelToken) was tripped — by the
    /// submitter (client disconnect, explicit abort) or by a per-job
    /// deadline. Never retried: cancellation is a caller decision, not a
    /// task fault, so the retry budget does not apply.
    Cancelled {
        /// `true` when the deadline expired, `false` on an explicit cancel.
        deadline_exceeded: bool,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            JobErrorKind::AttemptsExhausted { last_error } => write!(
                f,
                "job `{}`: {} task {} failed after {} attempts: {}",
                self.job, self.phase, self.task, self.attempts, last_error
            ),
            JobErrorKind::BadPartitioner {
                partition,
                num_partitions,
            } => write!(
                f,
                "job `{}`: partition_fn returned {partition} >= {num_partitions} \
                 ({} task {})",
                self.job, self.phase, self.task
            ),
            JobErrorKind::Cancelled { deadline_exceeded } => write!(
                f,
                "job `{}`: cancelled {} at {} task {}",
                self.job,
                if *deadline_exceeded {
                    "by deadline"
                } else {
                    "by caller"
                },
                self.phase,
                self.task
            ),
        }
    }
}

impl std::error::Error for JobError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_plan_injects_nothing() {
        let inj = FaultInjector::none();
        assert!(!inj.is_active());
        for task in 0..100 {
            assert!(!inj.should_fail(Phase::Map, 0, task, 0));
            assert!(inj.straggler_delay(Phase::Reduce, 0, task, 0).is_none());
            assert!(!inj.should_fail_dfs_read(task as u64, 0));
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultInjector::new(FaultPlan::chaos(7, 0.3, 0.3));
        let b = FaultInjector::new(FaultPlan::chaos(7, 0.3, 0.3));
        for job in 0..4 {
            for task in 0..50 {
                for attempt in 0..3 {
                    assert_eq!(
                        a.should_fail(Phase::Map, job, task, attempt),
                        b.should_fail(Phase::Map, job, task, attempt)
                    );
                    assert_eq!(
                        a.straggler_delay(Phase::Reduce, job, task, attempt),
                        b.straggler_delay(Phase::Reduce, job, task, attempt)
                    );
                }
            }
        }
    }

    #[test]
    fn rates_roughly_respected() {
        let inj = FaultInjector::new(FaultPlan::chaos(11, 0.2, 0.0));
        let fails = (0..10_000)
            .filter(|&t| inj.should_fail(Phase::Map, 0, t, 0))
            .count();
        assert!((1_500..2_500).contains(&fails), "got {fails}");
    }

    #[test]
    fn seeds_change_decisions() {
        let a = FaultInjector::new(FaultPlan::chaos(1, 0.5, 0.0));
        let b = FaultInjector::new(FaultPlan::chaos(2, 0.5, 0.0));
        let differing = (0..1_000)
            .filter(|&t| a.should_fail(Phase::Map, 0, t, 0) != b.should_fail(Phase::Map, 0, t, 0))
            .count();
        assert!(
            differing > 100,
            "seeds barely change decisions: {differing}"
        );
    }

    #[test]
    fn forced_faults_fire_exactly() {
        let plan = FaultPlan::none().with_forced(vec![ForcedFault {
            phase: Phase::Map,
            task: 3,
            attempts: 2,
        }]);
        let inj = FaultInjector::new(plan);
        assert!(inj.should_fail(Phase::Map, 0, 3, 0));
        assert!(inj.should_fail(Phase::Map, 0, 3, 1));
        assert!(!inj.should_fail(Phase::Map, 0, 3, 2));
        assert!(!inj.should_fail(Phase::Map, 0, 2, 0));
        assert!(!inj.should_fail(Phase::Reduce, 0, 3, 0));
    }

    #[test]
    fn straggler_delay_bounded() {
        let mut plan = FaultPlan::chaos(5, 0.0, 1.0);
        plan.straggler_delay = Duration::from_millis(10);
        let inj = FaultInjector::new(plan);
        for task in 0..100 {
            let d = inj
                .straggler_delay(Phase::Map, 1, task, 0)
                .expect("rate 1.0 always straggles");
            assert!(d > Duration::ZERO && d <= Duration::from_millis(10));
        }
    }

    #[test]
    fn error_display_names_phase_and_task() {
        let e = JobError {
            job: "j".into(),
            phase: Phase::Reduce,
            task: 5,
            attempts: 4,
            kind: JobErrorKind::AttemptsExhausted {
                last_error: "injected fault".into(),
            },
        };
        let s = e.to_string();
        assert!(
            s.contains("job `j`"),
            "display must carry the job identity: {s}"
        );
        assert!(
            s.contains("reduce task 5") && s.contains("4 attempts"),
            "{s}"
        );
    }

    #[test]
    fn every_error_kind_names_its_job() {
        // With concurrent jobs a bare "map task 3 failed" is unattributable;
        // every kind's display must lead with the JobSpec name.
        let kinds = [
            JobErrorKind::AttemptsExhausted {
                last_error: "x".into(),
            },
            JobErrorKind::BadPartitioner {
                partition: 9,
                num_partitions: 4,
            },
            JobErrorKind::Cancelled {
                deadline_exceeded: false,
            },
            JobErrorKind::Cancelled {
                deadline_exceeded: true,
            },
        ];
        for kind in kinds {
            let e = JobError {
                job: "table2-crep-round1".into(),
                phase: Phase::Map,
                task: 3,
                attempts: 1,
                kind,
            };
            let s = e.to_string();
            assert!(s.contains("job `table2-crep-round1`"), "{s}");
        }
    }

    #[test]
    fn cancelled_display_distinguishes_deadline() {
        let mk = |deadline_exceeded| JobError {
            job: "q".into(),
            phase: Phase::Map,
            task: 0,
            attempts: 0,
            kind: JobErrorKind::Cancelled { deadline_exceeded },
        };
        assert!(mk(true).to_string().contains("by deadline"));
        assert!(mk(false).to_string().contains("by caller"));
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn rejects_bad_rate() {
        let _ = FaultInjector::new(FaultPlan::chaos(0, 1.5, 0.0));
    }

    #[test]
    fn corruption_decisions_deterministic_and_generation_dependent() {
        let a = FaultInjector::new(FaultPlan::none().with_corruption(0.5));
        let b = FaultInjector::new(FaultPlan::none().with_corruption(0.5));
        let mut corrupted = 0;
        let mut generation_changes = 0;
        for task in 0..50 {
            for partition in 0..8 {
                let d0 = a.should_corrupt_run(1, task, partition, 0);
                assert_eq!(d0, b.should_corrupt_run(1, task, partition, 0));
                corrupted += usize::from(d0);
                if d0 != a.should_corrupt_run(1, task, partition, 1) {
                    generation_changes += 1;
                }
            }
        }
        assert!((100..300).contains(&corrupted), "got {corrupted}");
        // A re-executed run must draw a fresh decision, or a corrupt run
        // could never be repaired.
        assert!(generation_changes > 50, "got {generation_changes}");
    }

    #[test]
    fn corruption_off_by_default() {
        let inj = FaultInjector::new(FaultPlan::chaos(3, 0.3, 0.1));
        for task in 0..100 {
            assert!(!inj.should_corrupt_run(0, task, 0, 0));
        }
        assert!(FaultInjector::new(FaultPlan::none().with_corruption(0.1)).is_active());
    }

    #[test]
    #[should_panic(expected = "spill_corruption_rate must be in [0, 1]")]
    fn rejects_bad_corruption_rate() {
        let _ = FaultInjector::new(FaultPlan::none().with_corruption(-0.5));
    }

    #[test]
    fn net_plan_deterministic_and_at_most_one_fault() {
        let plan = NetFaultPlan::chaos(9, 0.08);
        plan.validate();
        let again = NetFaultPlan::chaos(9, 0.08);
        let mut fired = 0;
        for conn in 0..20 {
            for op in 0..50 {
                let d = plan.decide(conn, op);
                assert_eq!(d, again.decide(conn, op));
                if d != NetFault::None {
                    fired += 1;
                }
                let point = plan.fault_point(conn, op, 100);
                assert!(point < 100);
                assert_eq!(point, again.fault_point(conn, op, 100));
            }
        }
        // 5 kinds × 8% each = 40% of ops faulted, roughly.
        assert!((250..550).contains(&fired), "got {fired}");
    }

    #[test]
    fn net_plan_none_is_inert() {
        let plan = NetFaultPlan::none();
        assert!(!plan.is_active());
        for op in 0..100 {
            assert_eq!(plan.decide(0, op), NetFault::None);
        }
        assert_eq!(plan.fault_point(0, 0, 0), 0);
    }

    #[test]
    fn net_delays_bounded() {
        let mut plan = NetFaultPlan::chaos(4, 0.0);
        plan.slow_loris_rate = 1.0;
        plan.stall = Duration::from_millis(10);
        for op in 0..100 {
            match plan.decide(0, op) {
                NetFault::SlowLoris(d) => {
                    assert!(d > Duration::ZERO && d <= Duration::from_millis(10));
                }
                other => panic!("rate 1.0 must trickle every read, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "corrupt_rate must be in [0, 1]")]
    fn net_plan_rejects_bad_rate() {
        let mut plan = NetFaultPlan::none();
        plan.corrupt_rate = 2.0;
        plan.validate();
    }
}
