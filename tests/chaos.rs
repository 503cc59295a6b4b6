//! Chaos suite: fault tolerance must be *invisible* above the engine.
//!
//! Under a random [`FaultPlan`] — failed task attempts, stragglers with
//! speculative re-execution, transient DFS read failures — every algorithm
//! must still produce exactly the brute-force join result, and the logical
//! metrics (record and byte counters) must be identical to the fault-free
//! run: a retried task never double-emits, a failed attempt never commits
//! partial output. Only when a task exhausts its attempt budget may a run
//! fail — and then with a structured [`JoinError`], not a process abort.

use mwsj_core::mapreduce::{
    AttemptOutcome, CancelToken, DfsError, FaultInjector, FaultPlan, ForcedFault, JobErrorKind,
    Phase, TraceEvent, TraceSink,
};
use mwsj_core::{reference, Algorithm, Cluster, ClusterConfig, JoinError, JoinRun};
use mwsj_geom::Rect;
use mwsj_query::Query;

fn synthetic(n: usize, seed: u64) -> Vec<Rect> {
    mwsj_datagen::SyntheticConfig::paper_default(n, seed).generate()
}

fn cluster_with(plan: Option<FaultPlan>) -> Cluster {
    let mut config = ClusterConfig::for_space((0.0, 100_000.0), (0.0, 100_000.0), 8);
    config.engine.fault_plan = plan;
    Cluster::new(config)
}

fn chain_query() -> Query {
    Query::builder()
        .overlap("R1", "R2")
        .range("R2", "R3", 300.0)
        .build()
        .unwrap()
}

#[test]
fn all_algorithms_match_brute_force_under_random_faults() {
    let q = chain_query();
    let r1 = synthetic(4_000, 91);
    let r2 = synthetic(4_000, 92);
    let r3 = synthetic(4_000, 93);
    let expected = reference::in_memory_join(&q, &[&r1, &r2, &r3]);
    assert!(!expected.is_empty());

    for fault_seed in [7, 1234] {
        // An eight-attempt budget keeps the probability of any task
        // exhausting it negligible (0.2^8) while injecting plenty of
        // retries across the suite's hundreds of tasks.
        let plan = FaultPlan::chaos(fault_seed, 0.2, 0.05).with_max_attempts(8);
        for alg in Algorithm::ALL {
            let cl = cluster_with(Some(plan.clone()));
            let out = cl.run(&q, &[&r1, &r2, &r3], alg);
            assert_eq!(
                out.tuples,
                expected,
                "{} deviates under fault seed {fault_seed}",
                alg.name()
            );
        }
    }
}

#[test]
fn logical_counters_identical_with_and_without_faults() {
    let q = chain_query();
    let r1 = synthetic(2_000, 101);
    let r2 = synthetic(2_000, 102);
    let r3 = synthetic(2_000, 103);

    let clean = cluster_with(None).run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicate);
    let faulty = cluster_with(Some(FaultPlan::chaos(42, 0.25, 0.1).with_max_attempts(8))).run(
        &q,
        &[&r1, &r2, &r3],
        Algorithm::ControlledReplicate,
    );

    assert_eq!(faulty.tuples, clean.tuples);
    assert_eq!(
        clean.report.num_jobs(),
        faulty.report.num_jobs(),
        "fault tolerance must not add or drop jobs"
    );
    for (c, f) in clean.report.jobs.iter().zip(&faulty.report.jobs) {
        assert_eq!(c.map_input_records, f.map_input_records, "{}", c.job_name);
        assert_eq!(c.map_output_records, f.map_output_records, "{}", c.job_name);
        assert_eq!(c.shuffle_bytes, f.shuffle_bytes, "{}", c.job_name);
        assert_eq!(
            c.reduce_input_groups, f.reduce_input_groups,
            "{}",
            c.job_name
        );
        assert_eq!(
            c.reduce_input_records, f.reduce_input_records,
            "{}",
            c.job_name
        );
        assert_eq!(
            c.reduce_output_records, f.reduce_output_records,
            "{}",
            c.job_name
        );
        // Fault-free runs keep the fault counters at zero.
        assert_eq!(c.retries, 0);
        assert_eq!(c.map_task_failures + c.reduce_task_failures, 0);
    }
    // Successful DFS reads are charged identically; failed ones are free.
    assert_eq!(clean.report.dfs_read_bytes, faulty.report.dfs_read_bytes);
    assert_eq!(clean.report.dfs_write_bytes, faulty.report.dfs_write_bytes);
    assert_eq!(clean.report.dfs_transient_read_failures, 0);

    // The chaos plan must actually have bitten for this test to mean
    // anything: at a 25% attempt-failure rate over dozens of tasks, some
    // retries are statistically certain (and deterministic per seed).
    let total_retries: u64 = faulty.report.jobs.iter().map(|j| j.retries).sum();
    assert!(total_retries > 0, "fault plan injected nothing");
}

/// The ISSUE's surgical case: exactly one map failure and one reduce
/// failure, each retried once — all logical counters byte-identical to the
/// fault-free run, `retries == 2`.
#[test]
fn one_map_and_one_reduce_failure_retry_without_trace() {
    let q = chain_query();
    let r1 = synthetic(1_000, 111);
    let r2 = synthetic(1_000, 112);
    let r3 = synthetic(1_000, 113);

    let plan = FaultPlan::none().with_forced(vec![
        ForcedFault {
            phase: Phase::Map,
            task: 0,
            attempts: 1,
        },
        ForcedFault {
            phase: Phase::Reduce,
            task: 1,
            attempts: 1,
        },
    ]);

    // All-Replicate runs exactly one job, so the forced faults fire once.
    let clean = cluster_with(None).run(&q, &[&r1, &r2, &r3], Algorithm::AllReplicate);
    let faulty = cluster_with(Some(plan)).run(&q, &[&r1, &r2, &r3], Algorithm::AllReplicate);

    assert_eq!(faulty.tuples, clean.tuples);
    let (c, f) = (&clean.report.jobs[0], &faulty.report.jobs[0]);
    assert_eq!(f.map_output_records, c.map_output_records);
    assert_eq!(f.shuffle_bytes, c.shuffle_bytes);
    assert_eq!(f.reduce_output_records, c.reduce_output_records);
    assert_eq!(f.map_task_failures, 1);
    assert_eq!(f.reduce_task_failures, 1);
    assert_eq!(f.retries, 2);
}

/// A task forced past `max_attempts` fails the *join* with a structured
/// error naming the phase and task — the process, and the cluster, live on.
#[test]
fn exhausted_attempts_surface_join_error_not_abort() {
    let q = chain_query();
    let r1 = synthetic(400, 121);
    let r2 = synthetic(400, 122);
    let r3 = synthetic(400, 123);

    let plan = FaultPlan::none()
        .with_forced(vec![ForcedFault {
            phase: Phase::Reduce,
            task: 2,
            attempts: u32::MAX,
        }])
        .with_max_attempts(3);
    let cl = cluster_with(Some(plan));

    let err = cl
        .submit(&JoinRun::new(&q, &[&r1, &r2, &r3]).algorithm(Algorithm::AllReplicate))
        .unwrap_err();
    match &err {
        JoinError::Job(e) => {
            assert_eq!(e.phase, Phase::Reduce);
            assert_eq!(e.task, 2);
            assert_eq!(e.attempts, 3);
        }
        JoinError::Dfs(e) => panic!("expected a job error, got DFS error {e}"),
        JoinError::InvalidInput(msg) => panic!("expected a job error, got invalid input: {msg}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("reduce task 2") && msg.contains("3 attempts"),
        "error must name phase, task and attempts: {msg}"
    );

    // The cluster is still usable: the same join without the fault plan's
    // doomed task succeeds.
    let ok = cluster_with(None).run(&q, &[&r1, &r2, &r3], Algorithm::AllReplicate);
    assert_eq!(ok.tuples, reference::in_memory_join(&q, &[&r1, &r2, &r3]));
}

/// Count-only runs must not tally through side effects: a retried or
/// speculative reduce attempt re-runs the user closure, and anything it
/// adds to shared state outside the commit protocol is double-counted.
/// Counts must ride the committed output, so `tuple_count` is identical
/// with and without faults — this is what `assert_same_results` in the
/// bench harness checks across algorithms.
#[test]
fn count_only_tuple_counts_survive_retries_and_speculation() {
    let q = chain_query();
    let r1 = synthetic(4_000, 141);
    let r2 = synthetic(4_000, 142);
    let r3 = synthetic(4_000, 143);

    // Both failure retries and straggler speculation, to exercise every
    // path that re-runs a reduce closure.
    let mut plan = FaultPlan::chaos(9, 0.2, 0.1).with_max_attempts(8);
    plan.straggler_delay = std::time::Duration::from_millis(1);

    for alg in Algorithm::ALL {
        let counting = |rels: &Cluster| {
            rels.submit(&JoinRun::new(&q, &[&r1, &r2, &r3]).algorithm(alg).counting())
        };
        let clean = counting(&cluster_with(None)).unwrap();
        let faulty = counting(&cluster_with(Some(plan.clone()))).unwrap();
        assert!(clean.tuples.is_empty() && faulty.tuples.is_empty());
        assert!(clean.tuple_count > 0);
        assert_eq!(
            faulty.tuple_count,
            clean.tuple_count,
            "{} count drifts under faults",
            alg.name()
        );
        let retries: u64 = faulty.report.jobs.iter().map(|j| j.retries).sum();
        assert!(retries > 0, "{}: fault plan injected nothing", alg.name());
    }
}

/// C-Rep round 1 emits the cell-local tuples itself, so in count-only
/// mode its reducers commit count records next to the marked rectangles.
/// Both kinds of record must ride the task-commit protocol: under retries
/// and speculation in *both* rounds every job commits what the clean run
/// commits, and the two rounds still add up to the reference.
#[test]
fn count_only_crep_l_round1_counts_commit_once_under_faults() {
    let q = chain_query();
    let r1 = synthetic(4_000, 181);
    let r2 = synthetic(4_000, 182);
    let r3 = synthetic(4_000, 183);
    let expected = reference::in_memory_join(&q, &[&r1, &r2, &r3]).len() as u64;

    let mut plan = FaultPlan::chaos(31, 0.25, 0.1).with_max_attempts(8);
    plan.straggler_delay = std::time::Duration::from_millis(1);
    let counting = |cl: &Cluster| {
        cl.submit(
            &JoinRun::new(&q, &[&r1, &r2, &r3])
                .algorithm(Algorithm::ControlledReplicateLimit)
                .counting(),
        )
        .expect("an eight-attempt budget survives the plan")
    };
    let clean = counting(&cluster_with(None));
    let faulty = counting(&cluster_with(Some(plan)));

    assert_eq!(clean.tuple_count, expected);
    assert_eq!(faulty.tuple_count, expected);
    assert_eq!(
        clean.stats.rectangles_replicated,
        faulty.stats.rectangles_replicated
    );
    // Round 1 commits the marked rectangles *and* count records.
    assert!(clean.report.jobs[0].reduce_output_records > clean.stats.rectangles_replicated);
    for (c, f) in clean.report.jobs.iter().zip(&faulty.report.jobs) {
        assert_eq!(c.map_output_records, f.map_output_records, "{}", c.job_name);
        assert_eq!(
            c.reduce_output_records, f.reduce_output_records,
            "{}",
            c.job_name
        );
        assert!(f.retries > 0, "{}: fault plan injected nothing", f.job_name);
    }
    assert_eq!(clean.report.dfs_write_bytes, faulty.report.dfs_write_bytes);
}

/// Cancellation composes with fault injection: cancelling one run mid-way
/// on a shared cluster under an active chaos plan must (a) surface a
/// `Cancelled` error that is never retried, (b) stop scheduling work — no
/// stray task attempts after the error returns, (c) hand every worker
/// slot back, and (d) leave a concurrently-running survivor's logical
/// counters byte-identical to a solo fault-free run.
#[test]
fn cancel_mid_run_under_faults_releases_slots_and_leaves_survivors_exact() {
    let q = chain_query();
    // Big enough that the doomed run is still in its map phase when the
    // cancel lands.
    let big1 = synthetic(20_000, 151);
    let big2 = synthetic(20_000, 152);
    let big3 = synthetic(20_000, 153);
    let s1 = synthetic(2_000, 101);
    let s2 = synthetic(2_000, 102);
    let s3 = synthetic(2_000, 103);

    let plan = FaultPlan::chaos(11, 0.2, 0.05).with_max_attempts(8);
    let cl = cluster_with(Some(plan));
    let trace = TraceSink::recording();
    let token = CancelToken::new();
    let (doomed, survivor) = std::thread::scope(|s| {
        let doomed = s.spawn(|| {
            cl.submit(
                &JoinRun::new(&q, &[&big1, &big2, &big3])
                    .algorithm(Algorithm::ControlledReplicate)
                    .cancel(token.clone())
                    .trace(trace.clone()),
            )
        });
        let survivor = s.spawn(|| {
            cl.submit(&JoinRun::new(&q, &[&s1, &s2, &s3]).algorithm(Algorithm::ControlledReplicate))
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        token.cancel();
        (doomed.join().unwrap(), survivor.join().unwrap())
    });

    match doomed.expect_err("cancelled run must fail") {
        JoinError::Job(e) => {
            assert!(
                matches!(
                    e.kind,
                    JobErrorKind::Cancelled {
                        deadline_exceeded: false
                    }
                ),
                "expected a caller cancel, got {e}"
            );
            assert!(e.to_string().contains("by caller"), "{e}");
        }
        JoinError::Dfs(e) => panic!("expected a cancelled job error, got DFS error {e}"),
        JoinError::InvalidInput(msg) => {
            panic!("expected a cancelled job error, got invalid input: {msg}")
        }
    }

    // (b) No stray attempts: once the error surfaced, the doomed run's
    // trace must have stopped growing.
    let settled = trace.len();
    std::thread::sleep(std::time::Duration::from_millis(80));
    assert_eq!(trace.len(), settled, "task attempts ran after the cancel");

    // (c) Every slot is back in the pool.
    let scheduler = cl.engine().scheduler();
    assert_eq!(scheduler.available(), scheduler.slots());

    // (d) The survivor is untouched: identical tuples and logical
    // counters to a solo run on a fault-free cluster.
    let survivor = survivor.expect("survivor run failed");
    let clean = cluster_with(None).run(&q, &[&s1, &s2, &s3], Algorithm::ControlledReplicate);
    assert_eq!(survivor.tuples, clean.tuples);
    assert_eq!(survivor.report.num_jobs(), clean.report.num_jobs());
    for (c, f) in clean.report.jobs.iter().zip(&survivor.report.jobs) {
        assert_eq!(c.map_input_records, f.map_input_records, "{}", c.job_name);
        assert_eq!(c.map_output_records, f.map_output_records, "{}", c.job_name);
        assert_eq!(c.shuffle_bytes, f.shuffle_bytes, "{}", c.job_name);
        assert_eq!(
            c.reduce_input_records, f.reduce_input_records,
            "{}",
            c.job_name
        );
        assert_eq!(
            c.reduce_output_records, f.reduce_output_records,
            "{}",
            c.job_name
        );
    }
}

/// Checksummed spills: a corrupt committed run is detected by the shuffle
/// and repaired by re-executing the *producing* map attempt. The
/// repair must be invisible — identical tuples and byte-identical
/// logical counters (including `spill_runs` and the input fingerprint,
/// charged only at original commit) — while the `corrupt_runs` counter
/// records every detection.
#[test]
fn corrupt_spill_runs_repair_to_byte_identical_counters() {
    let q = chain_query();
    let r1 = synthetic(2_000, 161);
    let r2 = synthetic(2_000, 162);
    let r3 = synthetic(2_000, 163);

    let clean = cluster_with(None).run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicate);
    // Attempt failures *and* spill corruption together: recovery re-runs
    // draw fresh failure faults, so the two retry paths compose.
    let plan = FaultPlan::chaos(23, 0.1, 0.0)
        .with_corruption(0.05)
        .with_max_attempts(8);
    let faulty = cluster_with(Some(plan)).run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicate);

    assert_eq!(faulty.tuples, clean.tuples);
    assert_eq!(clean.report.num_jobs(), faulty.report.num_jobs());
    for (c, f) in clean.report.jobs.iter().zip(&faulty.report.jobs) {
        assert_eq!(c.map_input_records, f.map_input_records, "{}", c.job_name);
        assert_eq!(c.map_output_records, f.map_output_records, "{}", c.job_name);
        assert_eq!(c.shuffle_bytes, f.shuffle_bytes, "{}", c.job_name);
        assert_eq!(c.spill_runs, f.spill_runs, "{}", c.job_name);
        assert_eq!(
            c.reduce_input_records, f.reduce_input_records,
            "{}",
            c.job_name
        );
        assert_eq!(
            c.reduce_output_records, f.reduce_output_records,
            "{}",
            c.job_name
        );
        assert_eq!(c.input_fingerprint, f.input_fingerprint, "{}", c.job_name);
        assert_eq!(c.corrupt_runs, 0, "clean runs must report zero corruption");
    }
    let repaired: u64 = faulty.report.jobs.iter().map(|j| j.corrupt_runs).sum();
    assert!(repaired > 0, "corruption plan injected nothing");
}

/// Under a corruption plan with reduce faults and stragglers, the corrupt
/// runs are repaired (`corrupt-run` events are traced) and the counters
/// the reduce task charges once per task, never per attempt —
/// `reduce_input_groups` and `max_partition_records` — equal the clean
/// run's although reduce attempts are retried and raced.
#[test]
fn corrupt_runs_repair_with_clean_reduce_counters() {
    let q = chain_query();
    let r1 = synthetic(2_000, 161);
    let r2 = synthetic(2_000, 162);
    let r3 = synthetic(2_000, 163);

    let clean = cluster_with(None).run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicate);
    let mut plan = FaultPlan::chaos(23, 0.1, 0.05)
        .with_corruption(0.05)
        .with_max_attempts(8);
    plan.straggler_delay = std::time::Duration::from_millis(1);
    let trace = TraceSink::recording();
    let faulty = cluster_with(Some(plan))
        .submit(
            &JoinRun::new(&q, &[&r1, &r2, &r3])
                .algorithm(Algorithm::ControlledReplicate)
                .trace(trace.clone()),
        )
        .expect("an eight-attempt budget survives the plan");
    assert_eq!(faulty.tuples, clean.tuples);

    let repaired = trace
        .events()
        .iter()
        .filter(|ev| {
            matches!(
                ev,
                TraceEvent::Attempt {
                    outcome: AttemptOutcome::CorruptRun,
                    ..
                }
            )
        })
        .count();
    assert!(repaired > 0, "corruption plan injected nothing");
    let reduce_failures: u64 = faulty
        .report
        .jobs
        .iter()
        .map(|j| j.reduce_task_failures)
        .sum();
    assert!(reduce_failures > 0, "no reduce attempt was retried");
    assert_eq!(clean.report.num_jobs(), faulty.report.num_jobs());
    for (c, f) in clean.report.jobs.iter().zip(&faulty.report.jobs) {
        assert_eq!(
            c.reduce_input_groups, f.reduce_input_groups,
            "{}",
            c.job_name
        );
        assert_eq!(
            c.max_partition_records, f.max_partition_records,
            "{}",
            c.job_name
        );
    }
}

/// The DFS fault schedule is pinned: every materialized stream draws its
/// transient-read decisions from the DFS-wide read sequence, so on a fixed
/// input and seed the failure count of each run — and the bytes charged —
/// are constants. A change to the sequence numbering or the decision hash
/// moves them; the tuples never move.
#[test]
fn dfs_fault_schedule_is_pinned() {
    let q = Query::builder()
        .overlap("R1", "R2")
        .range("R2", "R3", 1000.0)
        .range("R3", "R4", 1000.0)
        .build()
        .unwrap();
    let rels: Vec<Vec<Rect>> = (0..4).map(|i| synthetic(4_000, 191 + i)).collect();
    let refs: Vec<&[Rect]> = rels.iter().map(Vec::as_slice).collect();

    // Per run on one cluster (the read sequence carries over between runs):
    // (transient read failures, DFS read bytes, DFS write bytes).
    let pinned = [
        (
            Algorithm::TwoWayCascade,
            [(1, 2_968, 2_968), (1, 2_968, 2_968), (0, 2_968, 2_968)],
        ),
        (
            Algorithm::ControlledReplicateLimit,
            [
                (1, 89_338, 89_338),
                (0, 89_338, 89_338),
                (0, 89_338, 89_338),
            ],
        ),
    ];
    for (alg, expected) in pinned {
        let clean = cluster_with(None).run(&q, &refs, alg);
        assert_eq!(clean.tuples.len(), 12);
        let cl = cluster_with(Some(FaultPlan::chaos(29, 0.3, 0.0).with_max_attempts(16)));
        for (run, want) in expected.into_iter().enumerate() {
            let out = cl.run(&q, &refs, alg);
            assert_eq!(out.tuples, clean.tuples, "{} run {run}", alg.name());
            let r = &out.report;
            let got = (
                r.dfs_transient_read_failures,
                r.dfs_read_bytes,
                r.dfs_write_bytes,
            );
            assert_eq!(got, want, "{} run {run}", alg.name());
        }
    }

    // A stream whose every read fails surfaces as a DFS error naming it.
    let mut plan = FaultPlan::none();
    plan.dfs_read_failure_rate = 1.0;
    for (alg, label) in [
        (Algorithm::TwoWayCascade, "cascade/stage-0"),
        (Algorithm::ControlledReplicateLimit, "c-rep/marked"),
    ] {
        let err = cluster_with(Some(plan.clone()))
            .submit(&JoinRun::new(&q, &refs).algorithm(alg))
            .unwrap_err();
        assert_eq!(err, JoinError::Dfs(DfsError::Unavailable(label.into())));
    }
}

/// Speculative execution races duplicate attempts for straggling tasks and
/// commits whichever finishes first — without perturbing results or
/// logical counters.
#[test]
fn heavy_speculation_does_not_perturb_results() {
    let q = chain_query();
    let r1 = synthetic(800, 131);
    let r2 = synthetic(800, 132);
    let r3 = synthetic(800, 133);

    let mut plan = FaultPlan::chaos(5, 0.0, 1.0);
    plan.straggler_delay = std::time::Duration::from_millis(1);
    let clean = cluster_with(None).run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicateLimit);
    let slow =
        cluster_with(Some(plan)).run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicateLimit);

    assert_eq!(slow.tuples, clean.tuples);
    let launched: u64 = slow
        .report
        .jobs
        .iter()
        .map(|j| j.speculative_launched)
        .sum();
    assert!(launched > 0, "straggler rate 1.0 must launch speculation");
    for (c, f) in clean.report.jobs.iter().zip(&slow.report.jobs) {
        assert_eq!(c.map_output_records, f.map_output_records);
        assert_eq!(c.reduce_output_records, f.reduce_output_records);
    }
}

/// The on-disk dataset store shares the engine's at-rest integrity
/// discipline: driving file tampering with the *same*
/// [`FaultPlan::with_corruption`] decisions the spill-run repair path
/// uses, every corrupted store image must be rejected on open — a
/// map-side join can never silently read flipped bits.
#[test]
fn stored_datasets_detect_fault_plan_corruption() {
    use mwsj_core::store::{StoreBuilder, StoredDataset};

    let rects = synthetic(500, 171);
    let grid = mwsj_core::partition::Grid::square((0.0, 100_000.0), (0.0, 100_000.0), 8);
    let bytes = StoreBuilder::new(&grid).build(&rects).expect("ingest");
    assert!(StoredDataset::from_bytes(&bytes).is_ok());

    // Each word of the image plays the role of a committed spill
    // partition: the injector's deterministic draw decides which words
    // rot, exactly as it decides which spill runs rot in the engine.
    let injector = FaultInjector::new(FaultPlan::none().with_corruption(0.03));
    let mut corrupted = 0;
    for w in 0..bytes.len() / 8 {
        if !injector.should_corrupt_run(1, 0, w, 0) {
            continue;
        }
        corrupted += 1;
        let mut bad = bytes.clone();
        bad[w * 8 + (w % 8)] ^= 1 << (w % 8);
        assert!(
            StoredDataset::from_bytes(&bad).is_err(),
            "corrupted word {w} went undetected"
        );
    }
    assert!(corrupted > 0, "corruption plan injected nothing");
}
