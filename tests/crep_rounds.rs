//! Every algorithm returns the reference's tuples, each exactly once, on
//! generated adversarial inputs.
//!
//! The suite pushes the inputs to where two pieces of floating-point
//! geometry that should agree could differ — edges on the cell boundaries
//! of grids whose cell width is not a binary fraction, zero-area,
//! duplicate and whole-extent rectangles, a range distance of exactly one
//! cell width, cyclic and hybrid join graphs, reducer groups from empty
//! to several dozen rectangles a relation — and runs all five shuffle
//! algorithms, plus the map-side join over stores built from the same
//! rectangles, against the in-memory reference, checking both the
//! materialized tuples and the count-only total: the tuple set is
//! normalized, so only the count can show a tuple emitted twice. C-Rep and
//! C-Rep-L are the sharpest customers (their two rounds decide "split onto
//! the cell" independently, round 1 by routing and round 2 by a predicate;
//! C-Rep-L's replication stops at a computed distance), but the reducer
//! join and its index are shared by all of them.
//!
//! The second half is the shared-cluster regression: inter-round streams
//! used to live under one constant DFS name per algorithm, so concurrent
//! runs on one cluster could read each other's.

use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{reference, Algorithm, Cluster, ClusterConfig, JoinOutput, JoinRun, StoredRun};
use mwsj_geom::Rect;
use mwsj_query::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const EXTENT: f64 = 1000.0;

fn cluster(side: u32) -> Cluster {
    Cluster::new(ClusterConfig::for_space((0.0, EXTENT), (0.0, EXTENT), side))
}

/// `n` rectangles biased to the hard cases for a `side × side` grid.
fn adversarial_relation(rng: &mut StdRng, n: usize, side: u32) -> Vec<Rect> {
    let half = EXTENT / f64::from(side) / 2.0;
    let slots = 2 * side;
    let mut out: Vec<Rect> = Vec::with_capacity(n);
    while out.len() < n {
        let kind = rng.random_range(0..20);
        if kind == 0 {
            out.push(Rect::from_bounds(0.0, 0.0, EXTENT, EXTENT).expect("the whole extent"));
            continue;
        }
        if kind == 1 && !out.is_empty() {
            let copy = out[rng.random_range(0..out.len())];
            out.push(copy);
            continue;
        }
        // An edge coordinate: on the half-cell lattice three times out of
        // four, anywhere otherwise.
        let edge = |rng: &mut StdRng| {
            if rng.random_range(0..4) > 0 {
                (f64::from(rng.random_range(0..=slots)) * half).min(EXTENT)
            } else {
                rng.random_range(0.0..EXTENT)
            }
        };
        let (x0, y0) = (edge(rng), edge(rng));
        // Zero extent on either axis one time in four; otherwise up to
        // two cells long, again mostly lattice-aligned.
        let far = |rng: &mut StdRng, near: f64| match rng.random_range(0..4) {
            0 => near,
            1 => (near + rng.random_range(0.0..4.0 * half)).min(EXTENT),
            _ => (near + f64::from(rng.random_range(1..=4u32)) * half).min(EXTENT),
        };
        let (x1, y1) = (far(rng, x0), far(rng, y0));
        out.push(Rect::from_bounds(x0, y0, x1, y1).expect("ordered, in-extent bounds"));
    }
    out
}

/// The query shapes, given one cell width as the range distance.
fn queries(cell: f64) -> Vec<(usize, Query)> {
    let parse = |text: String| {
        let q = Query::parse(&text).unwrap_or_else(|e| panic!("{text}: {e:?}"));
        (q.num_relations(), q)
    };
    vec![
        parse("A ov B".to_string()),
        parse(format!("A ra({cell}) B")),
        parse("A ov B and B ov C".to_string()),
        parse(format!("A ra({cell}) B and B ra({cell}) C")),
        parse(format!("A ov B and B ra({cell}) C")),
        parse(format!("A ra({}) B and B ov C", cell / 2.0)),
        parse("A ov B and B ov C and C ov A".to_string()),
        parse(format!("A ov B and B ra({cell}) C and C ov A")),
        parse("C ov L1 and C ov L2 and C ov L3".to_string()),
    ]
}

#[test]
fn every_algorithm_emits_each_reference_tuple_exactly_once() {
    let mut cases = 0u32;
    let mut reference_tuples = 0u64;
    for side in 1..=8u32 {
        let cl = cluster(side);
        for (shape, (arity, query)) in queries(EXTENT / f64::from(side)).iter().enumerate() {
            for round in 0..3u64 {
                let seed = u64::from(side) * 1_000 + shape as u64 * 10 + round;
                let mut rng = StdRng::seed_from_u64(seed);
                // The last round fills the reducer groups (on the 1×1 grid
                // one group holds all 70); the 4-relation star stays at
                // what keeps its reference tractable. Every group here
                // sweeps in one strip — `mwsj-local`'s own tests cross the
                // strip rule.
                let n = match (*arity > 3, round == 2) {
                    (true, _) => 14,
                    (false, false) => 28,
                    (false, true) => 70,
                };
                let relations: Vec<Vec<Rect>> = (0..*arity)
                    .map(|_| adversarial_relation(&mut rng, n, side))
                    .collect();
                let slices: Vec<&[Rect]> = relations.iter().map(Vec::as_slice).collect();
                let expected = reference::in_memory_join(query, &slices);
                let check = |what: String, got: JoinOutput, counted: JoinOutput| {
                    assert!(
                        got.tuples == expected,
                        "{what}: {} tuples, the reference has {}",
                        got.tuples.len(),
                        expected.len()
                    );
                    assert_eq!(
                        counted.tuple_count,
                        expected.len() as u64,
                        "{what}: a tuple was counted twice or not at all"
                    );
                };
                for alg in Algorithm::ALL {
                    let what = format!("{} on side {side}, shape {shape}, seed {seed}", alg.name());
                    let run = JoinRun::new(query, &slices).algorithm(alg);
                    let got = cl.submit(&run).expect("fault-free run");
                    if matches!(
                        alg,
                        Algorithm::ControlledReplicate | Algorithm::ControlledReplicateLimit
                    ) {
                        assert_eq!(got.report.num_jobs(), 2, "{what}: two rounds always");
                    }
                    let counted = cl.submit(&run.counting()).expect("fault-free run");
                    check(what, got, counted);
                }
                let builder = StoreBuilder::new(cl.grid());
                let stores: Vec<StoredDataset> = relations
                    .iter()
                    .map(|rel| {
                        let bytes = builder.build(rel).expect("in-extent rectangles");
                        StoredDataset::from_bytes(&bytes).expect("a store just built")
                    })
                    .collect();
                let stores: Vec<&StoredDataset> = stores.iter().collect();
                let run = StoredRun::new(query, &stores).algorithm(Algorithm::MapSide);
                check(
                    format!("map-side on side {side}, shape {shape}, seed {seed}"),
                    cl.submit_stored(&run).expect("fault-free run"),
                    cl.submit_stored(&run.counting()).expect("fault-free run"),
                );
                cases += 1;
                reference_tuples += expected.len() as u64;
            }
        }
    }
    // The generator must keep producing joins worth checking.
    assert!(
        reference_tuples > 100 * u64::from(cases),
        "{reference_tuples} reference tuples over {cases} cases"
    );
}

#[test]
fn concurrent_runs_on_one_cluster_equal_their_solo_results() {
    const THREADS: usize = 4;
    const RUNS: usize = 40;
    let query = Query::parse("A ov B and B ov C").unwrap();
    let cl = cluster(4);
    // Every thread joins its own inputs, so a stream read from another
    // run shows as wrong tuples.
    let inputs: Vec<Vec<Vec<Rect>>> = (0..THREADS)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(7_000 + t as u64);
            (0..3)
                .map(|_| adversarial_relation(&mut rng, 40, 4))
                .collect()
        })
        .collect();
    let solo = |relations: &[Vec<Rect>], alg: Algorithm| {
        let slices: Vec<&[Rect]> = relations.iter().map(Vec::as_slice).collect();
        cluster(4).run(&query, &slices, alg).tuples
    };
    let algorithms = [
        Algorithm::ControlledReplicateLimit,
        Algorithm::ControlledReplicate,
        Algorithm::TwoWayCascade,
    ];
    let expected: Vec<Vec<Vec<Vec<u32>>>> = inputs
        .iter()
        .map(|rels| algorithms.iter().map(|&alg| solo(rels, alg)).collect())
        .collect();
    assert!(expected
        .iter()
        .zip(expected.iter().skip(1))
        .all(|(a, b)| a[0] != b[0]));

    // All threads enter every iteration together, so their inter-round
    // streams are in flight at the same time. A thread never panics
    // between two waits (the others would block forever); it reports.
    let barrier = std::sync::Barrier::new(THREADS);
    let wrong: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .zip(&expected)
            .map(|(relations, expected)| {
                let (cl, query, barrier) = (&cl, &query, &barrier);
                s.spawn(move || {
                    let slices: Vec<&[Rect]> = relations.iter().map(Vec::as_slice).collect();
                    let mut wrong = Vec::new();
                    for run in 0..RUNS {
                        let which = run % algorithms.len();
                        barrier.wait();
                        let run = JoinRun::new(query, &slices).algorithm(algorithms[which]);
                        match cl.submit(&run) {
                            Ok(got) if got.tuples == expected[which] => {}
                            Ok(_) => wrong.push(format!(
                                "{} returned another run's tuples",
                                algorithms[which].name()
                            )),
                            Err(e) => wrong.push(format!("{}: {e}", algorithms[which].name())),
                        }
                    }
                    wrong
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread"))
            .collect()
    });
    assert!(wrong.is_empty(), "{wrong:?}");
    assert_eq!(
        cl.engine().dfs.dataset_count(),
        0,
        "a finished run left its stream on the DFS"
    );
}
