//! The metric counters the experiment tables are built from: job counts,
//! intermediate pair accounting, DFS traffic, and the invariants tying
//! them together.

use mwsj_core::{Algorithm, Cluster, ClusterConfig};
use mwsj_datagen::SyntheticConfig;
use mwsj_geom::Rect;
use mwsj_query::Query;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::for_space(
        (0.0, 100_000.0),
        (0.0, 100_000.0),
        8,
    ))
}

fn workload() -> (Vec<Rect>, Vec<Rect>, Vec<Rect>) {
    (
        SyntheticConfig::paper_default(2_000, 1).generate(),
        SyntheticConfig::paper_default(2_000, 2).generate(),
        SyntheticConfig::paper_default(2_000, 3).generate(),
    )
}

#[test]
fn job_counts_per_algorithm() {
    let (r1, r2, r3) = workload();
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let cl = cluster();

    let all = cl.run(&q, &[&r1, &r2, &r3], Algorithm::AllReplicate);
    assert_eq!(all.report.num_jobs(), 1, "All-Rep is a single round");

    let crep = cl.run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicate);
    assert_eq!(crep.report.num_jobs(), 2, "C-Rep runs two rounds");

    let cascade = cl.run(&q, &[&r1, &r2, &r3], Algorithm::TwoWayCascade);
    assert_eq!(
        cascade.report.num_jobs(),
        2,
        "a 2-triple chain cascades through two 2-way joins"
    );
}

#[test]
fn cascade_pays_dfs_traffic_others_pay_little() {
    let (r1, r2, r3) = workload();
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let cl = cluster();

    let cascade = cl.run(&q, &[&r1, &r2, &r3], Algorithm::TwoWayCascade);
    assert!(
        cascade.report.dfs_write_bytes > 0 && cascade.report.dfs_read_bytes > 0,
        "the cascade materializes intermediates on the DFS"
    );

    let all = cl.run(&q, &[&r1, &r2, &r3], Algorithm::AllReplicate);
    assert_eq!(
        all.report.dfs_write_bytes, 0,
        "single-round: no DFS round trip"
    );

    // C-Rep materializes only the marked rectangles (38 bytes each),
    // independent of the input and the result size.
    let crep = cl.run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicate);
    assert_eq!(
        crep.report.dfs_write_bytes,
        38 * crep.stats.rectangles_replicated
    );
}

#[test]
fn intermediate_pair_accounting_is_exact() {
    // Round-1 of C-Rep splits everything: the job's map-output count must
    // equal the sum of split-cell counts; round 2 maps the marked
    // rectangles only, so its count is the replication targets the stats
    // expose.
    let (r1, r2, r3) = workload();
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let cl = cluster();
    let out = cl.run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicate);

    let expected_split: u64 = [&r1, &r2, &r3]
        .iter()
        .flat_map(|rel| rel.iter())
        .map(|r| cl.grid().split_cells(r).len() as u64)
        .sum();
    assert_eq!(out.report.jobs[0].map_output_records, expected_split);

    assert_eq!(
        out.report.jobs[1].map_output_records,
        out.stats.rectangles_after_replication
    );
}

#[test]
fn all_rep_after_replication_matches_fourth_quadrants() {
    let (r1, r2, r3) = workload();
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let cl = cluster();
    let out = cl.run(&q, &[&r1, &r2, &r3], Algorithm::AllReplicate);
    let expected: u64 = [&r1, &r2, &r3]
        .iter()
        .flat_map(|rel| rel.iter())
        .map(|r| cl.grid().fourth_quadrant_cells(r).len() as u64)
        .sum();
    assert_eq!(out.stats.rectangles_after_replication, expected);
}

/// The hypercube derives its shares itself; they are the shares the plan
/// reports, so relation `i` travels to exactly `Π_{j≠i} s_j` reducers.
#[test]
fn hypercube_after_replication_matches_the_planned_shares() {
    let (r1, r2, r3) = workload();
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let cl = cluster();
    let shares = cl
        .plan(&q, &[&r1, &r2, &r3])
        .shares
        .expect("plans carry the share vector");
    let product: u64 = shares.iter().map(|&s| u64::from(s)).product();
    let expected: u64 = shares.iter().map(|&s| 2_000 * product / u64::from(s)).sum();

    let out = cl.run(&q, &[&r1, &r2, &r3], Algorithm::Hypercube);
    assert_eq!(out.stats.rectangles_replicated, 6_000);
    assert_eq!(out.stats.rectangles_after_replication, expected);
    assert_eq!(out.report.jobs[0].map_output_records, expected);
}

#[test]
fn shuffle_bytes_track_record_sizes() {
    let (r1, r2, r3) = workload();
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let cl = cluster();
    let out = cl.run(&q, &[&r1, &r2, &r3], Algorithm::AllReplicate);
    let j = &out.report.jobs[0];
    // Key u32 (4 bytes) + TaggedRect (38 bytes) per intermediate pair.
    assert_eq!(j.shuffle_bytes, j.map_output_records * 42);
}

#[test]
fn reduce_input_equals_map_output() {
    let (r1, r2, r3) = workload();
    let q = Query::parse("R1 ra(100) R2 and R2 ra(100) R3").unwrap();
    let cl = cluster();
    let out = cl.run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicateLimit);
    for j in &out.report.jobs {
        assert_eq!(
            j.reduce_input_records, j.map_output_records,
            "{}",
            j.job_name
        );
        assert!(j.reduce_input_groups <= 64, "at most one group per cell");
    }
}

#[test]
fn metrics_reset_between_runs() {
    let (r1, r2, r3) = workload();
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let cl = cluster();
    let first = cl.run(&q, &[&r1, &r2, &r3], Algorithm::TwoWayCascade);
    let second = cl.run(&q, &[&r1, &r2, &r3], Algorithm::AllReplicate);
    // The second report must not contain the cascade's jobs or DFS bytes.
    assert_eq!(second.report.num_jobs(), 1);
    assert_eq!(second.report.dfs_write_bytes, 0);
    assert!(first.report.num_jobs() > 1);
}

#[test]
fn count_only_matches_collected_count() {
    use mwsj_core::JoinRun;
    let (r1, r2, r3) = workload();
    let cl = cluster();
    for q_text in [
        "R1 ov R2 and R2 ov R3",
        "R1 ra(150) R2 and R2 ra(150) R3",
        "R1 ov R2 and R2 ra(300) R3",
    ] {
        let q = Query::parse(q_text).unwrap();
        for alg in Algorithm::ALL {
            let collected = cl.run(&q, &[&r1, &r2, &r3], alg);
            let counted = cl
                .submit(&JoinRun::new(&q, &[&r1, &r2, &r3]).algorithm(alg).counting())
                .expect("fault-free run");
            assert_eq!(collected.tuple_count, collected.tuples.len() as u64);
            assert_eq!(
                counted.tuple_count,
                collected.tuple_count,
                "{} on {q_text}",
                alg.name()
            );
            assert!(counted.tuples.is_empty(), "counting mode must not collect");
            // The cost metrics must be unaffected by the output mode.
            assert_eq!(
                counted.stats.rectangles_after_replication,
                collected.stats.rectangles_after_replication
            );
        }
    }
}

#[test]
fn modeled_time_exceeds_compute_time() {
    use mwsj_core::mapreduce::CostModel;
    let (r1, r2, r3) = workload();
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let cl = cluster();
    let out = cl.run(&q, &[&r1, &r2, &r3], Algorithm::TwoWayCascade);
    let model = CostModel::hadoop_2013();
    let modeled = out.report.modeled_time(&model);
    // At least the per-job overhead times the number of jobs.
    assert!(modeled >= model.per_job_overhead * out.report.num_jobs() as u32);
}

#[test]
fn planned_cascade_shrinks_intermediates_on_skewed_selectivity() {
    use mwsj_core::optimizer::cascade_order;
    // A-B joins heavily (big rectangles); B-C barely joins. The naive
    // order (A⋈B first) materializes a big intermediate; the planned order
    // starts with B⋈C and writes far less to the DFS.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let big = |seed: u64| {
        let mut cfg = SyntheticConfig::paper_default(2_000, seed).with_max_sides(2_000.0, 2_000.0);
        cfg.x_range = (0.0, 100_000.0);
        cfg.y_range = (0.0, 100_000.0);
        cfg.generate()
    };
    let (a, b) = (big(1), big(2));
    let c: Vec<Rect> = (0..2_000)
        .map(|_| {
            use rand::Rng;
            Rect::new(
                rng.random_range(0.0..99_000.0),
                rng.random_range(10.0..100_000.0),
                5.0,
                5.0,
            )
        })
        .collect();
    let q = Query::parse("A ov B and B ov C").unwrap();
    let cl = cluster();
    let planned = cascade_order(&q, &[&a, &b, &c], cl.grid());
    // The planned first condition is the selective one.
    assert_eq!(q.name(planned.triples()[0].right), "C");

    let naive = cl.run(&q, &[&a, &b, &c], Algorithm::TwoWayCascade);
    let smart = cl.run(&planned, &[&a, &b, &c], Algorithm::TwoWayCascade);
    assert_eq!(naive.tuples, smart.tuples, "reordering preserves results");
    assert!(
        smart.report.dfs_write_bytes * 2 < naive.report.dfs_write_bytes,
        "planned {} vs naive {} DFS bytes",
        smart.report.dfs_write_bytes,
        naive.report.dfs_write_bytes
    );
    assert!(
        smart.report.total_intermediate_records() < naive.report.total_intermediate_records(),
        "planned {} vs naive {} shuffled records",
        smart.report.total_intermediate_records(),
        naive.report.total_intermediate_records()
    );
}

#[test]
fn skew_metric_reports_hot_reducers() {
    // All data in one corner: one reducer takes nearly everything.
    let mut cfg = SyntheticConfig::paper_default(2_000, 9);
    cfg.x_range = (0.0, 10_000.0);
    cfg.y_range = (90_000.0, 100_000.0);
    let r1 = cfg.clone().generate();
    cfg.seed = 10;
    let r2 = cfg.generate();
    let q = Query::parse("R1 ov R2").unwrap();
    let cl = cluster();
    // C-Rep round 1 splits the relations: corner-concentrated data lands
    // almost entirely on one reducer. (All-Replicate would *hide* this
    // skew: a top-left corner rectangle is replicated to every cell.)
    let out = cl.run(&q, &[&r1, &r2], Algorithm::ControlledReplicate);
    let j = &out.report.jobs[0];
    // The hottest reducer holds far more than the 64-partition average.
    assert!(
        j.max_partition_records as f64 > 10.0 * (j.reduce_input_records as f64 / 64.0),
        "max {} vs total {}",
        j.max_partition_records,
        j.reduce_input_records
    );
}

#[test]
fn wall_times_are_populated() {
    let (r1, r2, r3) = workload();
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let cl = cluster();
    let out = cl.run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicate);
    assert!(out.report.total_wall().as_nanos() > 0);
    for j in &out.report.jobs {
        assert!(j.total_wall >= j.map_wall);
        assert!(j.total_wall >= j.reduce_wall);
    }
}

#[test]
fn results_and_counts_independent_of_parallelism() {
    // The slot count must never affect results or any logical counter —
    // spill runs included, since every job is cut into the same map tasks
    // at any slot count — nor, under a fault plan, which attempts fail:
    // only wall times may differ.
    use mwsj_core::mapreduce::{EngineConfig, FaultPlan, JobMetrics};
    let (r1, r2, r3) = workload();
    let q = Query::parse("R1 ov R2 and R2 ra(120) R3").unwrap();
    let counters = |j: &JobMetrics| {
        (
            j.job_name.clone(),
            [
                j.map_input_records,
                j.map_output_records,
                j.shuffle_bytes,
                j.reduce_input_groups,
                j.reduce_input_records,
                j.max_partition_records,
                j.reduce_output_records,
                j.spill_runs,
            ],
            [j.retries, j.map_task_failures, j.reduce_task_failures],
        )
    };
    for plan in [None, Some(FaultPlan::chaos(7, 0.1, 0.0))] {
        for alg in [
            Algorithm::ControlledReplicateLimit,
            Algorithm::TwoWayCascade,
        ] {
            let mut baseline = None;
            for slots in [1usize, 2, 8] {
                let engine = EngineConfig {
                    fault_plan: plan.clone(),
                    slots,
                    ..EngineConfig::default()
                };
                let cl = Cluster::new(
                    ClusterConfig::for_space((0.0, 100_000.0), (0.0, 100_000.0), 8)
                        .with_engine(engine),
                );
                let out = cl.run(&q, &[&r1, &r2, &r3], alg);
                let got = (
                    out.tuples,
                    out.stats.rectangles_after_replication,
                    out.report.dfs_write_bytes,
                    out.report.dfs_read_bytes,
                    out.report.dfs_transient_read_failures,
                    out.report.jobs.iter().map(counters).collect::<Vec<_>>(),
                );
                let want = baseline.get_or_insert_with(|| got.clone());
                assert_eq!(
                    &got,
                    want,
                    "{} at {slots} slots, faults {plan:?}",
                    alg.name()
                );
            }
        }
    }
}

#[test]
fn concurrent_runs_share_one_cluster_safely() {
    // Several joins from different threads against separate clusters (an
    // Engine serves one run at a time; users run clusters per session).
    let (r1, r2, r3) = workload();
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let expected = {
        let cl = cluster();
        cl.run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicate)
            .tuples
    };
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                let cl = cluster();
                let out = cl.run(&q, &[&r1, &r2, &r3], Algorithm::AllReplicate);
                assert_eq!(out.tuples, expected);
            });
        }
    });
}

/// `eight_concurrent_clients_get_solo_counters` below the server: eight
/// callers submit at once to one cluster with two slots. Every caller is
/// the first worker of its own jobs, so all eight make progress on two
/// slots, and each reads the tuples and logical counters of its solo run.
#[test]
fn eight_concurrent_submitters_on_two_slots_get_their_solo_counters() {
    use mwsj_core::mapreduce::{EngineConfig, JobMetrics};
    use mwsj_core::JoinRun;

    let two_slots = || {
        let engine = EngineConfig::default().with_slots(2);
        Cluster::new(
            ClusterConfig::for_space((0.0, 5_000.0), (0.0, 5_000.0), 4).with_engine(engine),
        )
    };
    let q = Query::parse("A ov B").unwrap();
    let inputs: Vec<[Vec<Rect>; 2]> = (0..8u64)
        .map(|i| {
            [100 + 2 * i, 101 + 2 * i].map(|seed| {
                let mut config = SyntheticConfig::paper_default(400, seed);
                (config.x_range, config.y_range) = ((0.0, 5_000.0), (0.0, 5_000.0));
                (config.l_range, config.b_range) = ((0.0, 250.0), (0.0, 250.0));
                config.generate()
            })
        })
        .collect();
    let logical = |jobs: &[JobMetrics]| -> Vec<[u64; 7]> {
        jobs.iter()
            .map(|j| {
                [
                    j.map_input_records,
                    j.map_output_records,
                    j.shuffle_bytes,
                    j.reduce_input_groups,
                    j.reduce_input_records,
                    j.reduce_output_records,
                    j.spill_runs,
                ]
            })
            .collect()
    };
    let submit = |cl: &Cluster, [a, b]: &[Vec<Rect>; 2]| {
        let relations: [&[Rect]; 2] = [a, b];
        let run = JoinRun::new(&q, &relations).algorithm(Algorithm::ControlledReplicate);
        let out = cl.submit(&run).expect("fault-free run");
        (out.tuples, logical(&out.report.jobs))
    };
    let solo: Vec<_> = inputs
        .iter()
        .map(|rels| submit(&two_slots(), rels))
        .collect();
    assert!(solo.iter().all(|(tuples, _)| !tuples.is_empty()));

    let shared = two_slots();
    let barrier = std::sync::Barrier::new(inputs.len());
    let concurrent: Vec<_> = std::thread::scope(|s| {
        let callers: Vec<_> = inputs
            .iter()
            .map(|rels| {
                let (shared, barrier, submit) = (&shared, &barrier, &submit);
                s.spawn(move || {
                    barrier.wait();
                    submit(shared, rels)
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("caller thread"))
            .collect()
    });
    assert_eq!(concurrent, solo);
    let scheduler = shared.engine().scheduler();
    assert_eq!((scheduler.slots(), scheduler.available()), (2, 2));
}
