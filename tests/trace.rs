//! Observability round-trip suite: the trace a join run records must be
//! exportable as valid JSON (both the JSONL event log and the
//! chrome://tracing file), its span tree must nest properly — every
//! attempt inside its phase, every phase inside its job — and the counter
//! snapshots embedded in the trace must equal the run's [`MetricsReport`]
//! exactly. A chaos run additionally shows every retried attempt as a
//! distinct span while the logical counters stay byte-identical to the
//! fault-free run.

use mwsj_core::mapreduce::{
    validate_json, Engine, EngineConfig, FaultPlan, ForcedFault, JobMetrics, JobSpec, Phase,
    TraceEvent, TraceSink,
};
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, Cluster, ClusterConfig, JoinOutput, JoinRun, StoredRun};
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
    Query::parse("R1 ov R2 and R2 ov R3").unwrap()
}

/// Runs one traced join and returns the sink alongside the output.
fn traced_run(plan: Option<FaultPlan>, alg: Algorithm) -> (TraceSink, JoinOutput) {
    let q = chain_query();
    let r1 = synthetic(1_500, 61);
    let r2 = synthetic(1_500, 62);
    let r3 = synthetic(1_500, 63);
    let sink = TraceSink::recording();
    let out = cluster_with(plan)
        .submit(
            &JoinRun::new(&q, &[&r1, &r2, &r3])
                .algorithm(alg)
                .trace(sink.clone()),
        )
        .expect("traced join");
    (sink, out)
}

/// The per-job counter snapshots recorded in the trace, in job order.
fn counter_snapshots(sink: &TraceSink) -> Vec<JobMetrics> {
    let mut snaps: Vec<(u64, JobMetrics)> = sink
        .events()
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Counters { job, metrics, .. } => Some((*job, (**metrics).clone())),
            _ => None,
        })
        .collect();
    snaps.sort_by_key(|(job, _)| *job);
    snaps.into_iter().map(|(_, m)| m).collect()
}

#[test]
fn jsonl_export_round_trips_and_covers_every_job() {
    let (sink, out) = traced_run(None, Algorithm::ControlledReplicate);
    let jsonl = sink.to_jsonl();
    assert!(!jsonl.is_empty());

    for (i, line) in jsonl.lines().enumerate() {
        validate_json(line).unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
    }

    // Every job in the report appears as a start/end pair and by name.
    for job in &out.report.jobs {
        assert!(
            jsonl.contains(&format!("\"name\":\"{}\"", job.job_name)),
            "missing job_start for {}",
            job.job_name
        );
    }
    let starts = jsonl.matches("\"type\":\"job_start\"").count();
    let ends = jsonl.matches("\"type\":\"job_end\"").count();
    assert_eq!(starts, out.report.num_jobs());
    assert_eq!(ends, out.report.num_jobs());
    // Two phases per job, map and reduce, started and ended.
    let phase_starts = jsonl.matches("\"type\":\"phase_start\"").count();
    assert_eq!(phase_starts, 2 * out.report.num_jobs());
    for phase in ["map", "reduce"] {
        let named = jsonl
            .lines()
            .filter(|l| l.contains("\"type\":\"phase_start\""))
            .filter(|l| l.contains(&format!("\"phase\":\"{phase}\"")))
            .count();
        assert_eq!(named, out.report.num_jobs(), "{phase} phase starts");
    }
    assert_eq!(
        jsonl.matches("\"type\":\"phase_end\"").count(),
        phase_starts
    );
}

#[test]
fn chrome_trace_is_loadable_and_names_every_span_kind() {
    let (sink, out) = traced_run(None, Algorithm::TwoWayCascade);
    let trace = sink.to_chrome_trace();
    validate_json(&trace).expect("chrome trace must be one well-formed JSON document");

    assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    for job in &out.report.jobs {
        assert!(
            trace.contains(&format!("\"job:{}\"", job.job_name)),
            "missing job slice for {}",
            job.job_name
        );
    }
    // Phase slices on lane 0, attempt slices on per-task lanes, one counter
    // sample per job.
    for phase in ["\"map\"", "\"reduce\""] {
        assert!(trace.contains(&format!("{{\"name\":{phase},\"cat\":\"phase\"")));
    }
    assert!(trace.contains("\"cat\":\"attempt\""));
    assert!(trace.contains("map task 0 attempt 0"));
    assert!(trace.contains("reduce task 0 attempt 0"));
    assert_eq!(
        trace.matches("\"ph\":\"C\"").count(),
        out.report.num_jobs(),
        "one counter sample per job"
    );
    // Process metadata names each job.
    assert_eq!(
        trace.matches("\"process_name\"").count(),
        out.report.num_jobs()
    );
}

#[test]
fn span_tree_nests_attempts_in_phases_in_jobs() {
    let (sink, out) = traced_run(None, Algorithm::ControlledReplicateLimit);
    let events = sink.events();

    for jobid in 0..out.report.num_jobs() as u64 {
        let job_span = span_of(&events, jobid, None);
        for phase in [Phase::Map, Phase::Reduce] {
            let phase_span = span_of(&events, jobid, Some(phase));
            assert!(
                job_span.0 <= phase_span.0 && phase_span.1 <= job_span.1,
                "job {jobid}: {phase} span {phase_span:?} outside job span {job_span:?}"
            );
        }
        let (map, reduce) = (
            span_of(&events, jobid, Some(Phase::Map)),
            span_of(&events, jobid, Some(Phase::Reduce)),
        );
        let mut attempts = 0;
        for ev in &events {
            if let TraceEvent::Attempt {
                job,
                phase,
                task,
                start,
                end,
                ..
            } = ev
            {
                if *job != jobid {
                    continue;
                }
                attempts += 1;
                let owner = match phase {
                    Phase::Map => map,
                    Phase::Reduce => reduce,
                };
                assert!(
                    owner.0 <= *start && *end <= owner.1,
                    "job {jobid} {phase:?} task {task}: attempt [{start}, {end}] \
                     outside phase span {owner:?}"
                );
            }
        }
        // 8 map tasks and one reduce task per grid cell, ≥ 1 attempt each.
        assert!(attempts >= 8, "job {jobid}: only {attempts} attempt spans");
    }
}

/// Start/end timestamps of a job span (`phase: None`) or a phase span.
fn span_of(events: &[TraceEvent], jobid: u64, phase: Option<Phase>) -> (u64, u64) {
    let mut start = None;
    let mut end = None;
    for ev in events {
        match (ev, phase) {
            (TraceEvent::JobStart { job, ts, .. }, None) if *job == jobid => start = Some(*ts),
            (TraceEvent::JobEnd { job, ts, .. }, None) if *job == jobid => end = Some(*ts),
            (TraceEvent::PhaseStart { job, phase, ts }, Some(p))
                if *job == jobid && *phase == p =>
            {
                start = Some(*ts);
            }
            (TraceEvent::PhaseEnd { job, phase, ts }, Some(p)) if *job == jobid && *phase == p => {
                end = Some(*ts);
            }
            _ => {}
        }
    }
    match (start, end) {
        (Some(s), Some(e)) => {
            assert!(s <= e, "job {jobid} {phase:?}: span ends before it starts");
            (s, e)
        }
        _ => panic!("job {jobid} {phase:?}: unmatched span"),
    }
}

#[test]
fn a_map_side_run_records_one_job_span_holding_one_phase_span() {
    // Distance conditions: overlaps alone are too rare in this space.
    let q = Query::parse("R1 within 1000 of R2 and R2 within 1000 of R3").unwrap();
    let cluster = cluster_with(None);
    let builder = StoreBuilder::new(cluster.grid());
    let stores: Vec<StoredDataset> = [81, 82, 83]
        .iter()
        .map(|&seed| {
            let bytes = builder.build(&synthetic(1_500, seed)).expect("build");
            StoredDataset::from_bytes(&bytes).expect("open")
        })
        .collect();
    let stores: Vec<&StoredDataset> = stores.iter().collect();
    let run = |trace: TraceSink| {
        let run = StoredRun::new(&q, &stores).algorithm(Algorithm::MapSide);
        cluster
            .submit_stored(&run.trace(trace))
            .expect("map-side run")
    };
    let sink = TraceSink::recording();
    let traced = run(sink.clone());
    assert!(!traced.tuples.is_empty());
    assert_eq!(traced.tuples, run(TraceSink::disabled()).tuples);

    let events = sink.events();
    let jobs: Vec<(u64, &str)> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::JobStart { job, name, .. } => Some((*job, name.as_str())),
            _ => None,
        })
        .collect();
    let [(job, "map-side")] = jobs[..] else {
        panic!("want one map-side job, got {jobs:?}");
    };
    let phases = events
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::PhaseStart { .. }))
        .count();
    assert_eq!(phases, 1);
    let job_span = span_of(&events, job, None);
    let phase_span = span_of(&events, job, Some(Phase::Map));
    assert!(job_span.0 <= phase_span.0 && phase_span.1 <= job_span.1);
    assert!(events
        .iter()
        .any(|ev| matches!(ev, TraceEvent::JobEnd { error: None, .. })));
    validate_json(&sink.to_chrome_trace()).expect("chrome trace must be well-formed JSON");
}

#[test]
fn trace_counter_snapshots_equal_metrics_report_exactly() {
    let (sink, out) = traced_run(None, Algorithm::AllReplicate);
    let snaps = counter_snapshots(&sink);
    assert_eq!(snaps.len(), out.report.num_jobs());
    for (snap, job) in snaps.iter().zip(&out.report.jobs) {
        // The snapshot is the exact JobMetrics appended to the report —
        // every field equal, wall clocks included.
        assert_eq!(snap.job_name, job.job_name);
        assert_eq!(snap.map_input_records, job.map_input_records);
        assert_eq!(snap.map_output_records, job.map_output_records);
        assert_eq!(snap.shuffle_bytes, job.shuffle_bytes);
        assert_eq!(snap.reduce_input_groups, job.reduce_input_groups);
        assert_eq!(snap.reduce_input_records, job.reduce_input_records);
        assert_eq!(snap.max_partition_records, job.max_partition_records);
        assert_eq!(snap.reduce_output_records, job.reduce_output_records);
        assert_eq!(snap.map_task_failures, job.map_task_failures);
        assert_eq!(snap.reduce_task_failures, job.reduce_task_failures);
        assert_eq!(snap.retries, job.retries);
        assert_eq!(snap.speculative_launched, job.speculative_launched);
        assert_eq!(snap.speculative_won, job.speculative_won);
        assert_eq!(snap.map_wall, job.map_wall);
        assert_eq!(snap.shuffle_wall, job.shuffle_wall);
        assert_eq!(snap.reduce_wall, job.reduce_wall);
        assert_eq!(snap.total_wall, job.total_wall);
    }
    // And the human-readable summary covers the same jobs.
    let table = out.report.phase_table();
    for job in &out.report.jobs {
        assert!(
            table.contains(&job.job_name),
            "{} missing from phase table",
            job.job_name
        );
    }
}

#[test]
fn chaos_retries_appear_as_distinct_attempt_spans() {
    let plan = FaultPlan::none().with_forced(vec![
        ForcedFault {
            phase: Phase::Map,
            task: 0,
            attempts: 1,
        },
        ForcedFault {
            phase: Phase::Reduce,
            task: 1,
            attempts: 2,
        },
    ]);
    // All-Replicate runs exactly one job, so the forced faults fire once.
    let (clean_sink, clean) = traced_run(None, Algorithm::AllReplicate);
    let (sink, faulty) = traced_run(Some(plan), Algorithm::AllReplicate);

    // Each retried task shows one span per attempt: the failed attempts
    // tagged with the injected-fault outcome, the final one succeeded.
    let outcomes = |events: &[TraceEvent], want_phase: Phase, want_task: usize| -> Vec<String> {
        let mut v: Vec<(u32, String)> = events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Attempt {
                    phase,
                    task,
                    attempt,
                    outcome,
                    ..
                } if *phase == want_phase && *task == want_task => {
                    Some((*attempt, outcome.tag().to_string()))
                }
                _ => None,
            })
            .collect();
        v.sort();
        assert_eq!(
            v.iter().map(|(a, _)| *a).collect::<Vec<_>>(),
            (0..v.len() as u32).collect::<Vec<_>>(),
            "attempt numbers must be consecutive and distinct"
        );
        v.into_iter().map(|(_, o)| o).collect()
    };
    let events = sink.events();
    assert_eq!(
        outcomes(&events, Phase::Map, 0),
        ["injected-fault", "succeeded"]
    );
    assert_eq!(
        outcomes(&events, Phase::Reduce, 1),
        ["injected-fault", "injected-fault", "succeeded"]
    );
    assert_eq!(outcomes(&clean_sink.events(), Phase::Map, 0), ["succeeded"]);

    // The logical counters in the chaos trace are byte-identical to the
    // fault-free trace: retried attempts never double-count.
    let (c, f) = (
        &counter_snapshots(&clean_sink)[0],
        &counter_snapshots(&sink)[0],
    );
    assert_eq!(f.map_input_records, c.map_input_records);
    assert_eq!(f.map_output_records, c.map_output_records);
    assert_eq!(f.shuffle_bytes, c.shuffle_bytes);
    assert_eq!(f.reduce_input_groups, c.reduce_input_groups);
    assert_eq!(f.reduce_input_records, c.reduce_input_records);
    assert_eq!(f.reduce_output_records, c.reduce_output_records);
    assert_eq!(f.retries, 3);
    assert_eq!(faulty.tuples, clean.tuples);

    // Both exports stay well-formed under chaos.
    for line in sink.to_jsonl().lines() {
        validate_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    validate_json(&sink.to_chrome_trace()).unwrap();
}

#[test]
fn tracing_does_not_perturb_logical_counters() {
    let q = chain_query();
    let r1 = synthetic(1_000, 71);
    let r2 = synthetic(1_000, 72);
    let r3 = synthetic(1_000, 73);
    let run = |trace: TraceSink| {
        cluster_with(None)
            .submit(
                &JoinRun::new(&q, &[&r1, &r2, &r3])
                    .algorithm(Algorithm::ControlledReplicate)
                    .trace(trace),
            )
            .unwrap()
    };
    let untraced = run(TraceSink::disabled());
    let traced = run(TraceSink::recording());
    assert_eq!(traced.tuples, untraced.tuples);
    for (t, u) in traced.report.jobs.iter().zip(&untraced.report.jobs) {
        assert_eq!(t.map_output_records, u.map_output_records, "{}", t.job_name);
        assert_eq!(t.shuffle_bytes, u.shuffle_bytes, "{}", t.job_name);
        assert_eq!(
            t.reduce_output_records, u.reduce_output_records,
            "{}",
            t.job_name
        );
    }
    assert_eq!(traced.report.dfs_read_bytes, untraced.report.dfs_read_bytes);
}

/// A map task re-executed to repair a corrupt run is traced under its
/// generation, like any retry: no attempt number, in either export,
/// reaches the attempt budget.
#[test]
fn re_executed_map_attempts_are_numbered_within_the_budget() {
    let plan = FaultPlan::none().with_corruption(0.3).with_max_attempts(8);
    let max_attempts = plan.max_attempts;
    let sink = TraceSink::recording();
    let engine = Engine::new(EngineConfig::default().with_slots(2).with_fault_plan(plan));
    let input: Vec<u32> = (0..400).collect();
    let spec = JobSpec::new("repaired")
        .reducers(4)
        .trace(sink.clone())
        .map(|&x: &u32, emit| emit(x, x))
        .partition(|&k: &u32, n| k as usize % n)
        .reduce(|&k: &u32, _: &[u32], out: &mut dyn FnMut(u32)| out(k));
    let (out, metrics) = engine.run(spec, &input).expect("eight attempts survive");
    assert_eq!(out.len(), 400);
    assert!(metrics.corrupt_runs > 0, "the plan corrupted nothing");

    let mut re_executed = 0;
    for ev in sink.events() {
        if let TraceEvent::Attempt {
            phase,
            task,
            attempt,
            ..
        } = ev
        {
            assert!(
                attempt < max_attempts,
                "{phase} task {task} traced as attempt {attempt}"
            );
            re_executed += usize::from(phase == Phase::Map && attempt > 0);
        }
    }
    assert!(re_executed > 0, "no map task was re-executed");
    validate_json(&sink.to_chrome_trace()).expect("chrome trace must be well-formed JSON");
}
