//! C-Rep-L at a range of exactly one cell width on a non-dyadic grid —
//! the minimized counterexample.
//!
//! Found by the generated suite in `tests/crep_rounds.rs` (side 3,
//! `A ra(c) B and B ra(c) C` with `c = 1000/3`, seed 3032, 70 rectangles
//! per relation: C-Rep-L returned 129 119 of 129 128 tuples). Three
//! rectangles are enough. `b` is homed in cell 0 of the 3×3 grid; the
//! tuple's designated cell combines the x of `a` and the y of `c`, which
//! puts it in cell 8, whose corner is `c` away from `b` on each axis: at
//! exactly the C-Rep-L replication bound of the middle relation of a
//! chain, on both axes at once. The bound was computed as
//! `(c + d_max) − d_max`, one ulp under `c`, and the routing — then a
//! Euclidean test of the cell's computed distance (471.40452079103164)
//! against `bound × √2` (471.4045207910316) — had no slack for the
//! rounding on either side. `b` never reached cell 8, and no other
//! reducer saw all three.

use mwsj_core::{reference, Algorithm, Cluster, ClusterConfig, JoinRun};
use mwsj_geom::Rect;
use mwsj_query::Query;

#[test]
fn the_cell_at_exactly_the_replication_bound_is_reached() {
    const EXTENT: f64 = 1000.0;
    let cell = EXTENT / 3.0;
    // Coordinates on the half-cell lattice, as the generator draws them.
    let at = |k: u32| (f64::from(k) * (cell / 2.0)).min(EXTENT);
    let rect = |x0: u32, y0: u32, x1: u32, y1: u32| {
        vec![Rect::from_bounds(at(x0), at(y0), at(x1), at(y1)).expect("ordered bounds")]
    };
    let a = rect(4, 5, 4, 6); // a vertical segment on the column 1 | 2 line
    let b = rect(1, 4, 2, 6); // homed in cell 0, `cell` left of `a`
    let c = rect(2, 2, 3, 2); // a horizontal segment `cell` below `b`
    let relations: [&[Rect]; 3] = [&a, &b, &c];
    let query = Query::parse(&format!("A ra({cell}) B and B ra({cell}) C")).unwrap();
    assert_eq!(
        reference::in_memory_join(&query, &relations),
        vec![vec![0, 0, 0]],
        "the tuple exists"
    );

    let cluster = Cluster::new(ClusterConfig::for_space((0.0, EXTENT), (0.0, EXTENT), 3));
    for algorithm in Algorithm::ALL {
        let run = JoinRun::new(&query, &relations).algorithm(algorithm);
        let got = cluster.submit(&run).expect("fault-free run");
        assert_eq!(got.tuples, vec![vec![0, 0, 0]], "{}", algorithm.name());
        let counted = cluster.submit(&run.counting()).expect("fault-free run");
        assert_eq!(counted.tuple_count, 1, "{} counting", algorithm.name());
    }
}
