//! The nearest-neighbor joins (§10 future work): the distributed
//! three-round kNN join — and the all-nearest-neighbor join, which is that
//! join at k = 1 — must match the brute-force reference exactly, including
//! ties, empty cells and clustered data.

use mwsj_core::ann::{knn_brute_force, knn_join};
use mwsj_core::mapreduce::{EngineConfig, TraceEvent, TraceSink};
use mwsj_core::{Cluster, ClusterConfig};
use mwsj_geom::Rect;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SPACE: (f64, f64) = (0.0, 1000.0);

fn cluster(side: u32) -> Cluster {
    Cluster::new(ClusterConfig::for_space(SPACE, SPACE, side))
}

/// A cluster whose engine records every job into the returned sink.
fn traced_cluster(side: u32) -> (Cluster, TraceSink) {
    let sink = TraceSink::recording();
    let config = ClusterConfig::for_space(SPACE, SPACE, side)
        .with_engine(EngineConfig::default().with_trace(sink.clone()));
    (Cluster::new(config), sink)
}

/// The jobs started on a traced cluster so far.
fn jobs_started(sink: &TraceSink) -> usize {
    sink.events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::JobStart { .. }))
        .count()
}

fn relation(n: usize, seed: u64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x = rng.random_range(0.0..980.0);
            let y = rng.random_range(20.0..1000.0);
            Rect::new(
                x,
                y,
                rng.random_range(0.0..20.0),
                rng.random_range(0.0..20.0),
            )
        })
        .collect()
}

#[test]
fn matches_brute_force_random() {
    let outer = relation(300, 1);
    let inner = relation(300, 2);
    let cl = cluster(8);
    assert_eq!(
        knn_join(&cl, &outer, &inner, 1).concat(),
        knn_brute_force(&outer, &inner, 1).concat()
    );
}

#[test]
fn matches_brute_force_sparse_inner() {
    // Few inner rectangles: most cells are empty and round 1 falls back to
    // the space diagonal, exercising the wide re-route.
    let outer = relation(200, 3);
    let inner = relation(3, 4);
    let cl = cluster(8);
    assert_eq!(
        knn_join(&cl, &outer, &inner, 1).concat(),
        knn_brute_force(&outer, &inner, 1).concat()
    );
}

#[test]
fn matches_brute_force_clustered_far_apart() {
    // Outer in one corner, inner in the opposite corner: every NN is far.
    let mut rng = StdRng::seed_from_u64(5);
    let outer: Vec<Rect> = (0..150)
        .map(|_| {
            Rect::new(
                rng.random_range(0.0..100.0),
                rng.random_range(900.0..1000.0),
                5.0,
                5.0,
            )
        })
        .collect();
    let inner: Vec<Rect> = (0..150)
        .map(|_| {
            Rect::new(
                rng.random_range(890.0..990.0),
                rng.random_range(20.0..110.0),
                5.0,
                5.0,
            )
        })
        .collect();
    let cl = cluster(8);
    assert_eq!(
        knn_join(&cl, &outer, &inner, 1).concat(),
        knn_brute_force(&outer, &inner, 1).concat()
    );
}

#[test]
fn overlapping_rectangles_have_distance_zero_nn() {
    // Ties at distance 0: the smallest inner id must win, everywhere.
    let outer = vec![Rect::new(100.0, 900.0, 50.0, 50.0)];
    let inner = vec![
        Rect::new(120.0, 880.0, 10.0, 10.0), // overlaps, id 0
        Rect::new(110.0, 890.0, 10.0, 10.0), // overlaps, id 1
        Rect::new(500.0, 500.0, 10.0, 10.0),
    ];
    let cl = cluster(4);
    let got = knn_join(&cl, &outer, &inner, 1).concat();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].inner, 0);
    assert_eq!(got[0].distance, 0.0);
    assert_eq!(got, knn_brute_force(&outer, &inner, 1).concat());
}

#[test]
fn empty_relations() {
    let r = relation(10, 7);
    let cl = cluster(4);
    assert!(knn_join(&cl, &r, &[], 1).concat().is_empty());
    assert!(knn_join(&cl, &[], &r, 1).concat().is_empty());
}

#[test]
fn self_ann_is_reflexive_at_zero() {
    // Every rectangle's NN within its own relation is itself (closed
    // distance 0, smallest id tie-break may pick an overlapping earlier
    // rectangle — distance must still be 0).
    let r = relation(100, 8);
    let cl = cluster(8);
    let got = knn_join(&cl, &r, &r, 1).concat();
    assert_eq!(got.len(), r.len());
    for nn in &got {
        assert_eq!(nn.distance, 0.0);
    }
    assert_eq!(got, knn_brute_force(&r, &r, 1).concat());
}

#[test]
fn runs_three_jobs() {
    let outer = relation(50, 9);
    let inner = relation(50, 10);
    let (cl, sink) = traced_cluster(4);
    let _ = knn_join(&cl, &outer, &inner, 1);
    assert_eq!(jobs_started(&sink), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn prop_ann_equals_brute_force(
        n_outer in 1usize..60,
        n_inner in 1usize..60,
        seed in 0u64..4_000,
        side in 1u32..6,
    ) {
        let outer = relation(n_outer, seed);
        let inner = relation(n_inner, seed.wrapping_add(1));
        let cl = cluster(side);
        prop_assert_eq!(
            knn_join(&cl, &outer, &inner, 1).concat(),
            knn_brute_force(&outer, &inner, 1).concat()
        );
    }
}

// ------------------------------------------------------------------- kNN

mod knn {
    use super::*;
    use mwsj_core::ann::try_knn_join;
    use mwsj_core::JoinError;

    #[test]
    fn matches_brute_force_random() {
        let outer = relation(150, 21);
        let inner = relation(150, 22);
        let cl = cluster(8);
        for k in [1usize, 3, 7] {
            assert_eq!(
                knn_join(&cl, &outer, &inner, k),
                knn_brute_force(&outer, &inner, k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn k_exceeding_inner_size_returns_everything() {
        let outer = relation(30, 23);
        let inner = relation(5, 24);
        let cl = cluster(4);
        let got = knn_join(&cl, &outer, &inner, 50);
        assert_eq!(got, knn_brute_force(&outer, &inner, 50));
        assert!(got.iter().all(|l| l.len() == 5));
    }

    /// The all-nearest-neighbor join is the kNN join at k = 1, flattened —
    /// also where the lists are short or empty.
    #[test]
    fn k_one_equals_ann() {
        let outer = relation(100, 25);
        let cl = cluster(8);
        for inner in [relation(100, 26), relation(1, 29), Vec::new()] {
            let knn = knn_join(&cl, &outer, &inner, 1);
            assert_eq!(knn.len(), outer.len());
            assert_eq!(knn.concat(), knn_brute_force(&outer, &inner, 1).concat());
        }
        // |inner| < k: every list is the whole inner relation, nearest
        // first, and its head is the all-nearest-neighbor answer.
        let inner = relation(3, 30);
        let knn = knn_join(&cl, &outer, &inner, 5);
        assert!(knn.iter().all(|list| list.len() == 3));
        let heads: Vec<_> = knn.iter().map(|list| list[0]).collect();
        assert_eq!(heads, knn_join(&cl, &outer, &inner, 1).concat());
    }

    #[track_caller]
    fn assert_invalid<T: std::fmt::Debug>(result: Result<T, JoinError>, want: &str) {
        match result {
            Err(JoinError::InvalidInput(msg)) => assert!(msg.contains(want), "{msg}"),
            other => panic!("expected InvalidInput({want}), got {other:?}"),
        }
    }

    #[test]
    fn caller_errors_are_invalid_input_naming_the_side() {
        let (cl, sink) = traced_cluster(4);
        let ok = relation(10, 31);
        let outside = vec![ok[0], Rect::new(990.0, 500.0, 20.0, 5.0)];
        assert_invalid(try_knn_join(&cl, &ok, &ok, 0), "k must be positive");
        assert_invalid(try_knn_join(&cl, &outside, &ok, 2), "outer relation");
        assert_invalid(try_knn_join(&cl, &ok, &outside, 2), "inner relation");
        assert_invalid(
            try_knn_join(&cl, &ok, &outside, 1),
            "outside the cluster space",
        );
        // Nothing ran: caller errors are found before any job starts.
        assert_eq!(jobs_started(&sink), 0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn knn_join_panics_on_zero_k() {
        let r = relation(10, 32);
        let _ = knn_join(&cluster(4), &r, &r, 0);
    }

    #[test]
    #[should_panic(expected = "inner relation contains rectangles outside the cluster space")]
    fn knn_join_panics_on_out_of_space_rectangles() {
        let r = relation(10, 33);
        let outside = vec![Rect::new(-5.0, 500.0, 20.0, 5.0)];
        let _ = knn_join(&cluster(4), &r, &outside, 1);
    }

    #[test]
    fn sparse_inner_with_fallback_bounds() {
        let outer = relation(80, 27);
        let inner = relation(4, 28);
        let cl = cluster(8);
        assert_eq!(
            knn_join(&cl, &outer, &inner, 3),
            knn_brute_force(&outer, &inner, 3)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_knn_equals_brute_force(
            n_outer in 1usize..40,
            n_inner in 1usize..40,
            k in 1usize..6,
            seed in 0u64..2_000,
        ) {
            let outer = relation(n_outer, seed);
            let inner = relation(n_inner, seed.wrapping_add(9));
            let cl = cluster(4);
            prop_assert_eq!(
                knn_join(&cl, &outer, &inner, k),
                knn_brute_force(&outer, &inner, k)
            );
        }
    }
}
