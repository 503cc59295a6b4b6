//! The central correctness property of the whole system: every distributed
//! algorithm — 2-way Cascade, All-Replicate, Controlled-Replicate, C-Rep-L
//! and the Shares-style hypercube — computes **exactly** the tuples of the
//! in-memory reference join, on every query shape, including inputs
//! engineered to sit on partition-cell boundaries. The cost-based planner
//! behind `Algorithm::Auto` is pinned here too: its decisions are a pure
//! function of the inputs, so they golden-test like any other output.

use mwsj_core::{reference, Algorithm, Cluster, ClusterConfig};
use mwsj_geom::Rect;
use mwsj_query::Query;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SPACE: (f64, f64) = (0.0, 1000.0);

fn cluster(side: u32) -> Cluster {
    Cluster::new(ClusterConfig::for_space(SPACE, SPACE, side))
}

fn random_relation(n: usize, seed: u64, max_side: f64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x = rng.random_range(0.0..SPACE.1);
            let y = rng.random_range(0.0..SPACE.1);
            let l = rng.random_range(0.0..max_side).min(SPACE.1 - x);
            let b = rng.random_range(0.0..max_side).min(y);
            Rect::new(x, y, l, b)
        })
        .collect()
}

/// Coordinates snapped to multiples of `grid_step / 2`, so rectangle edges
/// frequently coincide with cell boundaries — the adversarial case for the
/// half-open routing and designated-cell rules.
fn boundary_relation(n: usize, seed: u64, grid_step: f64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    let snap = grid_step / 2.0;
    let slots = (SPACE.1 / snap) as u64;
    (0..n)
        .map(|_| {
            let x = rng.random_range(0..slots) as f64 * snap;
            let y = rng.random_range(1..=slots) as f64 * snap;
            let l = (rng.random_range(0..=4) as f64 * snap).min(SPACE.1 - x);
            let b = (rng.random_range(0..=4) as f64 * snap).min(y);
            Rect::new(x, y, l, b)
        })
        .collect()
}

fn check_all(query: &Query, relations: &[&[Rect]], side: u32) {
    let expected = reference::in_memory_join(query, relations);
    let cl = cluster(side);
    for alg in Algorithm::ALL {
        let got = cl.run(query, relations, alg);
        assert_eq!(
            got.tuples,
            expected,
            "{} deviates from the reference ({} vs {} tuples)",
            alg.name(),
            got.tuples.len(),
            expected.len()
        );
    }
}

#[test]
fn overlap_chain3_random() {
    // The paper's Q2 = R1 Ov R2 and R2 Ov R3.
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let r1 = random_relation(250, 10, 30.0);
    let r2 = random_relation(250, 11, 30.0);
    let r3 = random_relation(250, 12, 30.0);
    check_all(&q, &[&r1, &r2, &r3], 8);
}

#[test]
fn overlap_chain4_random() {
    // The paper's Q1 = chain of four relations.
    let q = Query::parse("R1 ov R2 and R2 ov R3 and R3 ov R4").unwrap();
    let rels: Vec<Vec<Rect>> = (0..4).map(|i| random_relation(120, 20 + i, 40.0)).collect();
    let refs: Vec<&[Rect]> = rels.iter().map(Vec::as_slice).collect();
    check_all(&q, &refs, 4);
}

#[test]
fn range_chain3_random() {
    // The paper's Q3 = R1 Ra(d) R2 and R2 Ra(d) R3.
    let q = Query::parse("R1 ra(25) R2 and R2 ra(25) R3").unwrap();
    let r1 = random_relation(150, 30, 15.0);
    let r2 = random_relation(150, 31, 15.0);
    let r3 = random_relation(150, 32, 15.0);
    check_all(&q, &[&r1, &r2, &r3], 8);
}

#[test]
fn hybrid_chain3_random() {
    // The paper's Q4 = R1 Ov R2 and R2 Ra(d) R3.
    let q = Query::parse("R1 ov R2 and R2 ra(40) R3").unwrap();
    let r1 = random_relation(180, 40, 25.0);
    let r2 = random_relation(180, 41, 25.0);
    let r3 = random_relation(180, 42, 25.0);
    check_all(&q, &[&r1, &r2, &r3], 8);
}

#[test]
fn star_query_random() {
    let q = Query::parse("C ov L1 and C ov L2 and C ov L3").unwrap();
    let c = random_relation(100, 50, 50.0);
    let l1 = random_relation(100, 51, 50.0);
    let l2 = random_relation(100, 52, 50.0);
    let l3 = random_relation(100, 53, 50.0);
    check_all(&q, &[&c, &l1, &l2, &l3], 4);
}

#[test]
fn cyclic_query_random() {
    // A triangle query exercises the cycle paths (cascade filter stage,
    // cyclic arc-consistency marking).
    let q = Query::parse("A ov B and B ov C and C ov A").unwrap();
    let a = random_relation(150, 60, 60.0);
    let b = random_relation(150, 61, 60.0);
    let c = random_relation(150, 62, 60.0);
    check_all(&q, &[&a, &b, &c], 4);
}

#[test]
fn self_join_star() {
    // The paper's Q2s = R Ov R and R Ov R over one dataset bound to three
    // positions.
    let q = Query::parse("Ra ov Rb and Rb ov Rc").unwrap();
    let r = random_relation(200, 70, 35.0);
    check_all(&q, &[&r, &r, &r], 8);
}

#[test]
fn boundary_aligned_overlap_chain() {
    // 8 cells over [0, 1000] => boundaries at multiples of 125; snap
    // coordinates to multiples of 62.5 so edges land on boundaries.
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let r1 = boundary_relation(150, 80, 125.0);
    let r2 = boundary_relation(150, 81, 125.0);
    let r3 = boundary_relation(150, 82, 125.0);
    check_all(&q, &[&r1, &r2, &r3], 8);
}

#[test]
fn boundary_aligned_range_chain() {
    let q = Query::parse("R1 ra(62.5) R2 and R2 ra(62.5) R3").unwrap();
    let r1 = boundary_relation(100, 90, 125.0);
    let r2 = boundary_relation(100, 91, 125.0);
    let r3 = boundary_relation(100, 92, 125.0);
    check_all(&q, &[&r1, &r2, &r3], 8);
}

#[test]
fn degenerate_rectangles_points_and_lines() {
    // Zero-width/zero-height rectangles (points, segments) are legal MBRs
    // of point/line spatial objects.
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let mut rng = StdRng::seed_from_u64(100);
    let mk = |rng: &mut StdRng| {
        let x = rng.random_range(0.0..900.0);
        let y = rng.random_range(100.0..1000.0);
        match rng.random_range(0..3) {
            0 => Rect::new(x, y, 0.0, 0.0),
            1 => Rect::new(x, y, rng.random_range(0.0..80.0), 0.0),
            _ => Rect::new(x, y, 0.0, rng.random_range(0.0..80.0)),
        }
    };
    let r1: Vec<Rect> = (0..150).map(|_| mk(&mut rng)).collect();
    let r2: Vec<Rect> = (0..150).map(|_| mk(&mut rng)).collect();
    let r3: Vec<Rect> = (0..150).map(|_| mk(&mut rng)).collect();
    check_all(&q, &[&r1, &r2, &r3], 4);
}

#[test]
fn empty_relation_yields_empty_output() {
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let r1 = random_relation(50, 110, 40.0);
    let empty: Vec<Rect> = Vec::new();
    let r3 = random_relation(50, 111, 40.0);
    let expected = reference::in_memory_join(&q, &[&r1, &empty, &r3]);
    assert!(expected.is_empty());
    check_all(&q, &[&r1, &empty, &r3], 4);
}

#[test]
fn single_cell_grid_degenerates_to_local_join() {
    let q = Query::parse("R1 ov R2").unwrap();
    let r1 = random_relation(100, 120, 50.0);
    let r2 = random_relation(100, 121, 50.0);
    check_all(&q, &[&r1, &r2], 1);
}

#[test]
fn two_way_overlap_and_range() {
    let q_ov = Query::parse("R1 ov R2").unwrap();
    let q_ra = Query::parse("R1 ra(30) R2").unwrap();
    let r1 = random_relation(300, 130, 25.0);
    let r2 = random_relation(300, 131, 25.0);
    check_all(&q_ov, &[&r1, &r2], 8);
    check_all(&q_ra, &[&r1, &r2], 8);
}

#[test]
fn crep_communicates_less_than_all_rep() {
    // The headline claim: C-Rep's intermediate pair count is far below
    // All-Rep's on uniform data.
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let r1 = random_relation(400, 140, 10.0);
    let r2 = random_relation(400, 141, 10.0);
    let r3 = random_relation(400, 142, 10.0);
    let cl = cluster(8);
    let all = cl.run(&q, &[&r1, &r2, &r3], Algorithm::AllReplicate);
    let crep = cl.run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicate);
    assert_eq!(all.tuples, crep.tuples);
    assert!(
        crep.stats.rectangles_after_replication * 4 < all.stats.rectangles_after_replication,
        "C-Rep {} vs All-Rep {}",
        crep.stats.rectangles_after_replication,
        all.stats.rectangles_after_replication
    );
    assert!(crep.stats.rectangles_replicated < all.stats.rectangles_replicated);
}

#[test]
fn crep_l_communicates_no_more_than_crep() {
    let q = Query::parse("R1 ra(50) R2 and R2 ra(50) R3").unwrap();
    let r1 = random_relation(300, 150, 10.0);
    let r2 = random_relation(300, 151, 10.0);
    let r3 = random_relation(300, 152, 10.0);
    let cl = cluster(8);
    let crep = cl.run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicate);
    let crepl = cl.run(&q, &[&r1, &r2, &r3], Algorithm::ControlledReplicateLimit);
    assert_eq!(crep.tuples, crepl.tuples);
    // Same rectangles are marked; only the replication extent differs.
    assert_eq!(
        crep.stats.rectangles_replicated,
        crepl.stats.rectangles_replicated
    );
    assert!(crepl.stats.rectangles_after_replication <= crep.stats.rectangles_after_replication);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_all_algorithms_agree_on_small_boundary_heavy_inputs(
        seed in 0u64..10_000,
        n1 in 1usize..40,
        n2 in 1usize..40,
        n3 in 1usize..40,
        d in 0.0..80.0f64,
        overlap_first in proptest::bool::ANY,
    ) {
        let r1 = boundary_relation(n1, seed, 250.0);
        let r2 = boundary_relation(n2, seed.wrapping_add(1), 250.0);
        let r3 = boundary_relation(n3, seed.wrapping_add(2), 250.0);
        let q = if overlap_first {
            Query::builder().overlap("R1", "R2").range("R2", "R3", d).build().unwrap()
        } else {
            Query::builder().range("R1", "R2", d).overlap("R2", "R3").build().unwrap()
        };
        let expected = reference::in_memory_join(&q, &[&r1, &r2, &r3]);
        let cl = cluster(4);
        for alg in Algorithm::ALL {
            let got = cl.run(&q, &[&r1, &r2, &r3], alg);
            prop_assert_eq!(
                &got.tuples, &expected,
                "{} deviates on seed {}", alg.name(), seed
            );
        }
    }
}

/// The reducer-side join kernel (PR 5) must be invisible in every
/// communication counter: replication and shuffle are decided map-side,
/// and the kernel emits exactly the tuples the old recursive matcher did.
/// The goldens below were captured by running this exact workload against
/// the pre-kernel recursive matcher; the kernel build must reproduce them
/// byte for byte — including `reduce_output_records`, which counts the
/// reduce-side emissions themselves.
#[test]
fn kernel_reducers_leave_communication_counters_unchanged() {
    let q = Query::parse("R1 ov R2 and R2 ra(40) R3").unwrap();
    let r1 = random_relation(250, 10, 30.0);
    let r2 = random_relation(250, 11, 30.0);
    let r3 = random_relation(250, 12, 30.0);
    let cl = cluster(8);

    // Per-job (map_output_records, shuffle_bytes, reduce_input_groups,
    // reduce_output_records).
    type JobCounters = (u64, u64, u64, u64);
    let golden: [(Algorithm, &[JobCounters]); 5] = [
        (
            Algorithm::TwoWayCascade,
            &[(606, 26_362, 64, 58), (461, 25_373, 64, 152)],
        ),
        (Algorithm::AllReplicate, &[(14_739, 619_038, 64, 152)]),
        // Round 1 commits the 407 marked rectangles plus the 130 tuples
        // whose members all sit on their designated cell; round 2 maps
        // the marked rectangles only and emits the other 22 tuples.
        (
            Algorithm::ControlledReplicate,
            &[(917, 38_514, 64, 537), (8_317, 349_314, 64, 22)],
        ),
        // The same marked rectangles, each to the cells within its
        // relation's bound on each axis, with each body charged its side
        // on that axis (its diagonal on both: 1 137 pairs, 47 754 B).
        (
            Algorithm::ControlledReplicateLimit,
            &[(917, 38_514, 64, 537), (1_069, 44_898, 64, 22)],
        ),
        (Algorithm::Hypercube, &[(12_000, 504_000, 64, 152)]),
    ];

    for (alg, jobs) in golden {
        let out = cl.run(&q, &[&r1, &r2, &r3], alg);
        assert_eq!(out.tuples.len(), 152, "{}", alg.name());
        assert_eq!(out.report.jobs.len(), jobs.len(), "{}", alg.name());
        for (j, want) in out.report.jobs.iter().zip(jobs) {
            let got = (
                j.map_output_records,
                j.shuffle_bytes,
                j.reduce_input_groups,
                j.reduce_output_records,
            );
            assert_eq!(got, *want, "{} job {}", alg.name(), j.job_name);
        }
    }
}

/// The kernel's per-thread scratch must survive the engine's fault
/// machinery: retried and speculative reduce attempts re-enter
/// `JoinKernel::execute` on the same worker threads, and committed output
/// and logical counters must match the fault-free run exactly.
#[test]
fn kernel_reducers_are_exact_under_fault_injection() {
    use mwsj_core::mapreduce::FaultPlan;

    let q = Query::parse("R1 ov R2 and R2 ra(40) R3").unwrap();
    let r1 = random_relation(250, 10, 30.0);
    let r2 = random_relation(250, 11, 30.0);
    let r3 = random_relation(250, 12, 30.0);
    let expected = reference::in_memory_join(&q, &[&r1, &r2, &r3]);

    let config = ClusterConfig::for_space(SPACE, SPACE, 8);
    let clean = Cluster::new(config.clone());

    let mut faulty_config = config;
    faulty_config.engine.fault_plan = Some(FaultPlan::chaos(23, 0.2, 0.05).with_max_attempts(8));
    let faulty = Cluster::new(faulty_config);

    for alg in [
        Algorithm::AllReplicate,
        Algorithm::ControlledReplicate,
        Algorithm::Hypercube,
    ] {
        let a = clean.run(&q, &[&r1, &r2, &r3], alg);
        let b = faulty.run(&q, &[&r1, &r2, &r3], alg);
        assert_eq!(a.tuples, expected, "{} (clean)", alg.name());
        assert_eq!(b.tuples, expected, "{} (faulty)", alg.name());
        for (ja, jb) in a.report.jobs.iter().zip(&b.report.jobs) {
            assert_eq!(
                ja.map_output_records, jb.map_output_records,
                "{}",
                ja.job_name
            );
            assert_eq!(ja.shuffle_bytes, jb.shuffle_bytes, "{}", ja.job_name);
            assert_eq!(
                ja.reduce_output_records, jb.reduce_output_records,
                "{}",
                ja.job_name
            );
        }
    }
}

/// The stored map-side join must be a perfect stand-in for the shuffle
/// algorithms: identical tuples on every query shape (including
/// boundary-aligned and degenerate inputs), and — pinned against the
/// All-Rep golden above — identical logical output counters. Map-side
/// moves nothing, so its communication counters are *genuinely* zero, but
/// the tuple count, the designated-cell group count and the per-cell
/// attribution must match what the shuffle reducers commit.
#[test]
fn map_side_matches_shuffle_algorithms_and_golden_counters() {
    use mwsj_core::store::{StoreBuilder, StoredDataset};
    use mwsj_core::StoredRun;

    let q = Query::parse("R1 ov R2 and R2 ra(40) R3").unwrap();
    let r1 = random_relation(250, 10, 30.0);
    let r2 = random_relation(250, 11, 30.0);
    let r3 = random_relation(250, 12, 30.0);
    let cl = cluster(8);

    let builder = StoreBuilder::new(cl.grid());
    let stores: Vec<StoredDataset> = [&r1, &r2, &r3]
        .iter()
        .map(|rel| StoredDataset::from_bytes(&builder.build(rel).unwrap()).unwrap())
        .collect();
    let refs: Vec<&StoredDataset> = stores.iter().collect();

    // Auto on stored co-partitioned inputs resolves to map-side.
    let plan = cl.plan_stored(&q, &refs);
    assert_eq!(plan.algorithm, Algorithm::MapSide, "{}", plan.to_json());

    let out = cl.submit_stored(&StoredRun::new(&q, &refs)).unwrap();
    assert_eq!(out.algorithm, Algorithm::MapSide);
    assert_eq!(out.tuples, reference::in_memory_join(&q, &[&r1, &r2, &r3]));
    assert_eq!(out.tuples.len(), 152);

    // Counter pin against the All-Rep golden of the same workload: one
    // synthetic job, zero communication, and the same committed output
    // count (152). Map-side groups count designated cells that actually
    // commit tuples (31 of the 64 occupied reducer groups All-Rep sees).
    assert_eq!(out.report.jobs.len(), 1);
    let j = &out.report.jobs[0];
    assert_eq!(j.job_name, "map-side");
    assert_eq!(j.map_input_records, 750);
    assert_eq!(j.map_output_records, 0);
    assert_eq!(j.shuffle_bytes, 0);
    assert_eq!(j.reduce_input_groups, 31);
    assert_eq!(j.reduce_output_records, 152);

    // A pinned shuffle algorithm over the same stores reads their runs as
    // its map input and reproduces its golden counters exactly.
    let all_rep = cl
        .submit_stored(&StoredRun::new(&q, &refs).algorithm(Algorithm::AllReplicate))
        .unwrap();
    assert_eq!(all_rep.tuples, out.tuples);
    let j = &all_rep.report.jobs[0];
    assert_eq!(
        (
            j.map_output_records,
            j.shuffle_bytes,
            j.reduce_input_groups,
            j.reduce_output_records
        ),
        (14_739, 619_038, 64, 152)
    );

    // Count-only mode reports the same tuple count without materializing.
    let counted = cl
        .submit_stored(&StoredRun::new(&q, &refs).counting())
        .unwrap();
    assert_eq!(counted.tuple_count, 152);
    assert!(counted.tuples.is_empty());
}

/// Map-side over every equivalence workload shape: stored joins agree
/// with the reference on boundary-heavy, degenerate and self-join inputs.
#[test]
fn map_side_agrees_with_reference_on_adversarial_shapes() {
    use mwsj_core::store::{StoreBuilder, StoredDataset};
    use mwsj_core::StoredRun;

    let cases: Vec<(Query, Vec<Vec<Rect>>, u32)> = vec![
        (
            Query::parse("R1 ov R2 and R2 ov R3").unwrap(),
            vec![
                boundary_relation(150, 80, 125.0),
                boundary_relation(150, 81, 125.0),
                boundary_relation(150, 82, 125.0),
            ],
            8,
        ),
        (
            Query::parse("R1 ra(62.5) R2 and R2 ra(62.5) R3").unwrap(),
            vec![
                boundary_relation(100, 90, 125.0),
                boundary_relation(100, 91, 125.0),
                boundary_relation(100, 92, 125.0),
            ],
            8,
        ),
        (
            Query::parse("A ov B and B ov C and C ov A").unwrap(),
            vec![
                random_relation(150, 60, 60.0),
                random_relation(150, 61, 60.0),
                random_relation(150, 62, 60.0),
            ],
            4,
        ),
        (
            Query::parse("Ra ov Rb and Rb ov Rc").unwrap(),
            vec![
                random_relation(200, 70, 35.0),
                random_relation(200, 70, 35.0),
                random_relation(200, 70, 35.0),
            ],
            8,
        ),
        (
            Query::parse("R1 ov R2 and R2 ov R3").unwrap(),
            vec![
                random_relation(50, 110, 40.0),
                Vec::new(),
                random_relation(50, 111, 40.0),
            ],
            4,
        ),
    ];
    for (q, rels, side) in cases {
        let refs_mem: Vec<&[Rect]> = rels.iter().map(Vec::as_slice).collect();
        let expected = reference::in_memory_join(&q, &refs_mem);
        let cl = cluster(side);
        let builder = StoreBuilder::new(cl.grid());
        let stores: Vec<StoredDataset> = rels
            .iter()
            .map(|rel| StoredDataset::from_bytes(&builder.build(rel).unwrap()).unwrap())
            .collect();
        let refs: Vec<&StoredDataset> = stores.iter().collect();
        let out = cl
            .submit_stored(&StoredRun::new(&q, &refs).algorithm(Algorithm::MapSide))
            .unwrap();
        assert_eq!(out.tuples, expected, "{q} on a {side}x{side} grid");
    }
}

/// Golden planner decisions over a Table 2-style size sweep. The plan is a
/// pure function of `(query, relations, grid, reducers)` — fixed sampling
/// seed, deterministic share enumeration, stable candidate sort — so these
/// pins hold on every platform. They also document the cost model's
/// regimes: tiny inputs take the single-round hypercube (per-job overhead
/// dominates), mid sizes the cascade (small intermediates), large sizes
/// C-Rep-L (the cascade's intermediates outgrow the marked replication).
/// If a deliberate cost-model change moves a boundary, re-pin and say why.
#[test]
fn planner_decisions_are_pinned() {
    let cl = cluster(8);
    let q2 = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    let q2_golden = [
        (20usize, Algorithm::Hypercube),
        (200, Algorithm::TwoWayCascade),
        (1000, Algorithm::TwoWayCascade),
        (4000, Algorithm::ControlledReplicateLimit),
    ];
    for (n, want) in q2_golden {
        let r1 = random_relation(n, 10, 30.0);
        let r2 = random_relation(n, 11, 30.0);
        let r3 = random_relation(n, 12, 30.0);
        let p = cl.plan(&q2, &[&r1, &r2, &r3]);
        assert_eq!(p.algorithm, want, "q2 n={n}: {}", p.to_json());
        assert_eq!(p.shares.as_deref(), Some(&[4, 4, 4][..]), "q2 n={n}");
    }

    let q3 = Query::parse("R1 ra(25) R2 and R2 ra(25) R3").unwrap();
    for (n, want) in [
        (200usize, Algorithm::TwoWayCascade),
        (2000, Algorithm::ControlledReplicateLimit),
    ] {
        let r1 = random_relation(n, 30, 15.0);
        let r2 = random_relation(n, 31, 15.0);
        let r3 = random_relation(n, 32, 15.0);
        let p = cl.plan(&q3, &[&r1, &r2, &r3]);
        assert_eq!(p.algorithm, want, "q3 n={n}: {}", p.to_json());
    }

    // Skewed two-way: the share vector must follow the size imbalance
    // (all the budget goes to the dominant relation's dimension).
    let qs = Query::parse("A ov B").unwrap();
    let a = random_relation(3000, 40, 30.0);
    let b = random_relation(30, 41, 30.0);
    let p = cl.plan(&qs, &[&a, &b]);
    assert_eq!(p.shares.as_deref(), Some(&[64, 1][..]), "{}", p.to_json());
}

/// `Algorithm::Auto` must be byte-identical to manually pinning the
/// algorithm the planner chose — same tuples, same shuffle counters. This
/// is what lets the server canonicalize its cache key to the concrete
/// algorithm: an auto query and its pinned twin share one entry.
#[test]
fn auto_runs_identical_to_pinned_choice() {
    let q = Query::parse("R1 ov R2 and R2 ov R3").unwrap();
    for n in [20usize, 1000, 4000] {
        let r1 = random_relation(n, 10, 30.0);
        let r2 = random_relation(n, 11, 30.0);
        let r3 = random_relation(n, 12, 30.0);
        let cl = cluster(8);
        let auto = cl.run(&q, &[&r1, &r2, &r3], Algorithm::Auto);
        assert_ne!(auto.algorithm, Algorithm::Auto);
        assert_eq!(auto.algorithm, cl.plan(&q, &[&r1, &r2, &r3]).algorithm);
        let pinned = cl.run(&q, &[&r1, &r2, &r3], auto.algorithm);
        assert_eq!(auto.tuples, pinned.tuples, "n={n}");
        assert_eq!(
            auto.tuples,
            reference::in_memory_join(&q, &[&r1, &r2, &r3]),
            "n={n}"
        );
        for (ja, jb) in auto.report.jobs.iter().zip(&pinned.report.jobs) {
            assert_eq!(ja.map_output_records, jb.map_output_records, "n={n}");
            assert_eq!(ja.shuffle_bytes, jb.shuffle_bytes, "n={n}");
        }
    }
}
