//! Every algorithm returns the reference's tuples, each exactly once, on
//! generated adversarial inputs.
//!
//! The suite pushes the inputs to where two pieces of floating-point
//! geometry that should agree could differ — edges on the cell boundaries
//! of grids whose cell width is not a binary fraction, zero-area,
//! duplicate and whole-extent rectangles, a range distance of exactly one
//! cell width, an overlap chain whose middle body is exactly the longest
//! and the broadest, cyclic and hybrid join graphs, reducer groups from
//! empty to several dozen rectangles a relation — and runs all five shuffle
//! algorithms, plus the map-side join over stores built from the same
//! rectangles, against the in-memory reference, checking both the
//! materialized tuples and the count-only total: the tuple set is
//! normalized, so only the count can show a tuple emitted twice. C-Rep and
//! C-Rep-L are the sharpest customers (their two rounds decide "split onto
//! the cell" independently, round 1 by routing and round 2 by a predicate;
//! C-Rep-L's replication stops at a computed distance), but the reducer
//! join and its index are shared by all of them.
//!
//! The map-side join builds a reducer group per seed cell out of the
//! stored per-cell runs, choosing the cells to read by its own index
//! arithmetic (a window's cell span, widened by the relation's reach); it
//! gets non-square and non-dyadic grids over a 3:1 extent, bodies several
//! cells long, and every start relation a query shape offers — and, cut
//! into shards that do not divide the cell count, must gather to the
//! single-node output field for field — and, started beside a job that
//! holds every slot but one, must return the lone run's output on its
//! caller alone. Its stores mix in records that start exactly on cell
//! boundaries and on the right and top extent edges, where the store
//! decides a home cell, and it is checked against the brute-force oracle —
//! and so are all five shuffle algorithms pinned over the same stores,
//! whose map phase reads the stored runs in storage order.
//!
//! The last test is the shared-cluster regression: inter-round streams
//! used to live under one constant DFS name per algorithm, so concurrent
//! runs on one cluster could read each other's; the nearest-neighbor
//! joins used to reset the cluster's shared DFS byte counters, so a
//! cascade running beside one reported less traffic than it moved; and
//! a run's DFS bytes used to be a delta of engine-wide counters, so
//! cascades running together each reported the sum of all of them.

use mwsj_core::ann::try_knn_join;
use mwsj_core::local::{dedup, multiway, LocalRect};
use mwsj_core::mapreduce::{EngineConfig, MetricsReport};
use mwsj_core::partition::Grid;
use mwsj_core::shards::{self, GatherSpec};
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{reference, Algorithm, Cluster, ClusterConfig, JoinOutput, JoinRun, StoredRun};
use mwsj_geom::Rect;
use mwsj_query::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

const EXTENT: f64 = 1000.0;

fn cluster(side: u32) -> Cluster {
    Cluster::new(ClusterConfig::for_space((0.0, EXTENT), (0.0, EXTENT), side))
}

/// `n` rectangles biased to the hard cases for a `side × side` grid.
fn adversarial_relation(rng: &mut StdRng, n: usize, side: u32) -> Vec<Rect> {
    adversarial_on(rng, n, (EXTENT, side), (EXTENT, side), 4)
}

/// The same over any grid: each axis is its `(extent, cells)`, and a body
/// is at most `reach` half cells long.
fn adversarial_on(
    rng: &mut StdRng,
    n: usize,
    x: (f64, u32),
    y: (f64, u32),
    reach: u32,
) -> Vec<Rect> {
    let mut out: Vec<Rect> = Vec::with_capacity(n);
    while out.len() < n {
        let kind = rng.random_range(0..20);
        if kind == 0 {
            out.push(Rect::from_bounds(0.0, 0.0, x.0, y.0).expect("the whole extent"));
            continue;
        }
        if kind == 1 && !out.is_empty() {
            let copy = out[rng.random_range(0..out.len())];
            out.push(copy);
            continue;
        }
        // An edge coordinate: on the half-cell lattice three times out of
        // four, anywhere otherwise.
        let half = |(extent, cells): (f64, u32)| extent / f64::from(cells) / 2.0;
        let edge = |rng: &mut StdRng, axis: (f64, u32)| {
            if rng.random_range(0..4) > 0 {
                (f64::from(rng.random_range(0..=2 * axis.1)) * half(axis)).min(axis.0)
            } else {
                rng.random_range(0.0..axis.0)
            }
        };
        let (x0, y0) = (edge(rng, x), edge(rng, y));
        // Zero extent on either axis one time in four; otherwise up to
        // `reach` half cells long, again mostly lattice-aligned.
        let far = |rng: &mut StdRng, near: f64, axis: (f64, u32)| match rng.random_range(0..4) {
            0 => near,
            1 => (near + rng.random_range(0.0..f64::from(reach) * half(axis))).min(axis.0),
            _ => (near + f64::from(rng.random_range(1..=reach)) * half(axis)).min(axis.0),
        };
        let (x1, y1) = (far(rng, x0, x), far(rng, y0, y));
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

/// Runs `query` over `relations` under all five shuffle algorithms and the
/// map-side join over stores built from the same rectangles, tuples and
/// count-only, against the in-memory reference, whose tuples it returns.
/// C-Rep-L's join round comes back too.
fn check_every_algorithm(
    cl: &Cluster,
    query: &Query,
    relations: &[Vec<Rect>],
    what: &str,
) -> Vec<Vec<u32>> {
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
        let what = format!("{} on {what}", alg.name());
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
        format!("map-side on {what}"),
        cl.submit_stored(&run).expect("fault-free run"),
        cl.submit_stored(&run.counting()).expect("fault-free run"),
    );
    expected
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
                let what = format!("side {side}, shape {shape}, seed {seed}");
                let expected = check_every_algorithm(&cl, query, &relations, &what);
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

/// Count-only against materialized, with no reference between them: on an
/// acyclic join graph a count-only reducer counts on the join tree and a
/// materializing one enumerates and tests each tuple by division, so the
/// two share no code past the pair lists. Every algorithm's count must be
/// its materialized tuple count, and a spatial reducer must commit a count
/// record exactly when its cell keeps a tuple: All-Rep at every designated
/// cell, C-Rep's round 1 at every designated cell of a tuple split whole
/// onto it and its round 2 at every other one. With no reference to keep
/// tractable, the inputs are 64 rectangles a relation (20 for the star);
/// the cycles check the enumerating fallback the same way.
#[test]
fn count_only_equals_the_materialized_count_on_every_case() {
    let mut tuples = 0u64;
    for side in 1..=8u32 {
        let cl = cluster(side);
        let grid = cl.grid();
        for (shape, (arity, query)) in queries(EXTENT / f64::from(side)).iter().enumerate() {
            let seed = 90_000 + u64::from(side) * 100 + shape as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let n = if *arity > 3 { 20 } else { 64 };
            let relations: Vec<Vec<Rect>> = (0..*arity)
                .map(|_| adversarial_relation(&mut rng, n, side))
                .collect();
            let slices: Vec<&[Rect]> = relations.iter().map(Vec::as_slice).collect();
            // Each materialized tuple's designated cell, and whether every
            // member is split onto it.
            let placed = |tuple: &[u32]| {
                let members = tuple
                    .iter()
                    .zip(&relations)
                    .map(|(&id, rel)| &rel[id as usize]);
                let cell = dedup::multiway_tuple_cell_of(grid, members.clone());
                (cell, members.clone().all(|r| grid.splits_onto(r, cell)))
            };
            for alg in Algorithm::ALL {
                let what = format!("{} on side {side}, shape {shape}, seed {seed}", alg.name());
                let run = JoinRun::new(query, &slices).algorithm(alg);
                let got = cl.submit(&run).expect("fault-free run");
                let counted = cl.submit(&run.counting()).expect("fault-free run");
                assert_eq!(
                    counted.tuple_count,
                    got.tuples.len() as u64,
                    "{what}: counted and materialized differ"
                );
                tuples += counted.tuple_count;
                let records =
                    |out: &JoinOutput, job: usize| out.report.jobs[job].reduce_output_records;
                let cells = |local: Option<bool>| {
                    let mut cells: Vec<_> = (got.tuples.iter().map(|t| placed(t)))
                        .filter(|&(_, whole)| local.is_none_or(|l| l == whole))
                        .map(|(cell, _)| cell)
                        .collect();
                    cells.sort_unstable();
                    cells.dedup();
                    cells.len() as u64
                };
                match alg {
                    Algorithm::AllReplicate => {
                        assert_eq!(records(&counted, 0), cells(None), "{what}: count records");
                    }
                    Algorithm::ControlledReplicate | Algorithm::ControlledReplicateLimit => {
                        let local = got.tuples.iter().filter(|t| placed(t).1).count() as u64;
                        assert_eq!(
                            records(&counted, 0) + local,
                            records(&got, 0) + cells(Some(true)),
                            "{what}: round 1 count records"
                        );
                        assert_eq!(
                            records(&counted, 1),
                            cells(Some(false)),
                            "{what}: round 2 count records"
                        );
                    }
                    _ => {}
                }
            }
        }
    }
    // The generator must keep producing joins worth checking.
    assert!(tuples > 1_000_000, "{tuples} tuples counted");
}

/// The corner C-Rep-L's bound is about, once for every home cell it fits
/// on a `cols × rows` grid: a rectangle `b`, a vertical segment `a` one
/// range distance (a cell width) to its right and a horizontal segment
/// `c` one range distance below it. The tuple's designated point takes
/// its x from `a` and its y from `c`, so it lies on a column and a row
/// boundary at `b`'s replication bound on both axes at once, in a cell
/// `b` is not split onto. Where the lattice puts a gap a rounding error
/// over the range, the edge moves one float at a time until the pair
/// joins as computed.
fn bound_corners(cols: u32, rows: u32) -> Vec<[Rect; 3]> {
    let (cw, ch) = (EXTENT / f64::from(cols), EXTENT / f64::from(rows));
    let mut out = Vec::new();
    for i in 0..cols - 1 {
        for t in 1..rows {
            // Coordinates on the half-cell lattice, as the generator
            // draws them.
            let at = |k: u32, cell: f64| (f64::from(k) * (cell / 2.0)).min(EXTENT);
            let (left, right) = (at(2 * i + 1, cw), at(2 * i + 2, cw));
            let mut x_star = at(2 * i + 4, cw);
            while x_star - right > cw {
                x_star = x_star.next_down();
            }
            let y_star = at(2 * t, ch);
            let mut bottom = y_star + cw;
            while bottom - y_star > cw {
                bottom = bottom.next_down();
            }
            let top = (bottom + ch / 2.0).min(EXTENT);
            let Some(b) = Rect::from_bounds(left, bottom, right, top) else {
                continue; // no room above the boundary
            };
            let a = Rect::from_bounds(x_star, bottom, x_star, top).expect("a segment");
            let c = Rect::from_bounds(left, y_star, right, y_star).expect("a segment");
            out.push([a, b, c]);
        }
    }
    out
}

#[test]
fn a_designated_cell_at_the_bound_on_both_axes_is_reached() {
    for (g, (cols, rows)) in [(3u32, 3u32), (7, 5)].into_iter().enumerate() {
        let cl = Cluster::new(ClusterConfig {
            grid_cols: cols,
            grid_rows: rows,
            ..ClusterConfig::for_space((0.0, EXTENT), (0.0, EXTENT), 1)
        });
        let cell = EXTENT / f64::from(cols);
        let corners = bound_corners(cols, rows);
        assert!(
            corners.len() >= 2,
            "{cols}×{rows}: {} corners",
            corners.len()
        );
        // `b` is the middle of a chain, a vertex of a cycle (its segments
        // are √2 cells apart) and the centre of a hybrid star whose third
        // leaf is `b` again: its bound is one cell width in each.
        let shapes = [
            format!("A ra({cell}) B and B ra({cell}) C"),
            format!(
                "A ra({cell}) B and B ra({cell}) C and C ra({}) A",
                2.0 * cell
            ),
            format!("A ra({cell}) B and B ra({cell}) C and B ov D"),
        ];
        for (shape, text) in shapes.iter().enumerate() {
            let query = Query::parse(text).unwrap_or_else(|e| panic!("{text}: {e:?}"));
            let arity = query.num_relations();
            let seed = 23_000 + g as u64 * 10 + shape as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let background = if arity > 3 { 10 } else { 20 };
            let mut relations: Vec<Vec<Rect>> = (0..arity)
                .map(|_| adversarial_on(&mut rng, background, (EXTENT, cols), (EXTENT, rows), 4))
                .collect();
            for [a, b, c] in &corners {
                for (rel, r) in relations.iter_mut().zip([a, b, c, b]) {
                    rel.push(*r);
                }
            }
            let what = format!("`{text}` on {cols}×{rows}, seed {seed}");
            let expected = check_every_algorithm(&cl, &query, &relations, &what);
            for k in background as u32..(background + corners.len()) as u32 {
                assert!(expected.contains(&vec![k; arity]), "{what}: corner {k}");
            }
            // No corner tuple has `b` on its designated cell: they are
            // round 2's to find, through the bounded replication.
            let slices: Vec<&[Rect]> = relations.iter().map(Vec::as_slice).collect();
            let run = JoinRun::new(&query, &slices).algorithm(Algorithm::ControlledReplicateLimit);
            let round2 = &cl.submit(&run).expect("fault-free run").report.jobs[1];
            assert!(
                round2.reduce_output_records >= corners.len() as u64,
                "{what}: round 2 emitted {} tuples",
                round2.reduce_output_records
            );
        }
    }
}

/// The corner C-Rep-L's per-axis bound is about, once for every column
/// `k ≥ 1` and row `t ≥ 1` of `grid`: an overlap chain `a`–`b`–`c` whose
/// middle body `b` runs from `a`, a point on its top-left corner half a
/// cell from the left edge and a third of one from the top, to `c`, a
/// point on its bottom-right corner at the first x of column `k` and the
/// last y of row `t`. The tuple's designated point is `c`, so `a`'s
/// designated cell lies exactly `b`'s length right of `a` and `b`'s
/// breadth below it: at both of the end relation's reaches at once when
/// `b` is the longest and the broadest body. `b`'s left and top edges move
/// one float at a time, up to 64 times, to where adding the computed side
/// back to them falls short of the far edge, so a reach that is not
/// widened for rounding stops a column or a row short.
fn axis_corners(grid: &Grid) -> Vec<[Rect; 3]> {
    let (x0, xn) = grid.x_range();
    let (y0, yn) = grid.y_range();
    let (cw, ch) = (
        (xn - x0) / f64::from(grid.cols()),
        (yn - y0) / f64::from(grid.rows()),
    );
    let nudged = |start: f64, step: fn(f64) -> f64, short: &dyn Fn(f64) -> bool| {
        std::iter::successors(Some(start), |&v| Some(step(v)))
            .take(64)
            .find(|&v| short(v))
            .unwrap_or(start)
    };
    let mut out = Vec::new();
    for k in 1..grid.cols() {
        for t in 1..grid.rows() {
            let (x_star, y_star) = (grid.col_start_x(k), grid.row_start_y(t));
            let left = nudged(x0 + cw / 2.0, f64::next_down, &|l| {
                l + (x_star - l) < x_star
            });
            let top = nudged(yn - ch / 3.0, f64::next_up, &|h| h - (h - y_star) > y_star);
            let b = Rect::from_bounds(left, y_star, x_star, top).expect("ordered bounds");
            let a = Rect::from_bounds(left, top, left, top).expect("a point");
            let c = Rect::from_bounds(x_star, y_star, x_star, y_star).expect("a point");
            out.push([a, b, c]);
        }
    }
    out
}

#[test]
fn an_end_relation_at_both_of_its_per_axis_reaches_is_reached() {
    let query = Query::parse("A ov B and B ov C").unwrap();
    // A grid of binary-fraction cells and two whose cell widths are not.
    for (g, (cols, rows)) in [(8u32, 4u32), (3, 3), (7, 5)].into_iter().enumerate() {
        let cl = Cluster::new(ClusterConfig {
            grid_cols: cols,
            grid_rows: rows,
            ..ClusterConfig::for_space((0.0, EXTENT), (0.0, EXTENT), 1)
        });
        let corners = axis_corners(cl.grid());
        assert!(
            corners.len() >= 4,
            "{cols}×{rows}: {} corners",
            corners.len()
        );
        for (n, corner) in corners.iter().enumerate() {
            let [a, b, c] = corner;
            assert_ne!(b.l(), b.b(), "a corner's length is not its breadth");
            // Round 1 cannot see the tuple: only `a`'s bounded replication
            // takes it to the designated cell.
            let grid = cl.grid();
            assert!(!grid.splits_onto(a, grid.cell_of(c)), "corner {n}");
            let seed = 24_000 + g as u64 * 100 + n as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            // A background of bodies shorter and narrower than `b`, so
            // that `b`'s sides are the inputs' `(l_max, b_max)`.
            let mut relations: Vec<Vec<Rect>> = (0..3)
                .map(|_| {
                    let mut rel = adversarial_on(&mut rng, 30, (EXTENT, cols), (EXTENT, rows), 4);
                    rel.retain(|r| r.l() < b.l() && r.b() < b.b());
                    rel
                })
                .collect();
            let ids: Vec<u32> = relations.iter().map(|rel| rel.len() as u32).collect();
            for (rel, r) in relations.iter_mut().zip(corner) {
                rel.push(*r);
            }
            let what = format!(
                "corner {n} on {cols}×{rows} ({} long, {} broad), seed {seed}",
                b.l(),
                b.b()
            );
            let expected = check_every_algorithm(&cl, &query, &relations, &what);
            assert!(expected.contains(&ids), "{what}: the corner joins");
        }
    }
}

/// An uneven grid over `[0, width] × [0, 1000]`, the stores of `relations`
/// built on it, and what the brute-force oracle says they join to.
struct StoredCase {
    cluster: Cluster,
    bytes: Vec<Vec<u8>>,
    expected: Vec<Vec<u32>>,
}

impl StoredCase {
    /// Relations of the given sizes, bodies up to four cells long, each
    /// with twelve more [`edge_homed`] rectangles, the first covering the
    /// whole extent.
    fn generate(rng: &mut StdRng, query: &Query, sizes: &[usize], grid: (u32, u32, f64)) -> Self {
        let (cols, rows, width) = grid;
        let cluster = Cluster::new(ClusterConfig {
            grid_cols: cols,
            grid_rows: rows,
            ..ClusterConfig::for_space((0.0, width), (0.0, EXTENT), 1)
        });
        let relations: Vec<Vec<Rect>> = (sizes.iter())
            .map(|&n| {
                let mut rel = adversarial_on(rng, n, (width, cols), (EXTENT, rows), 8);
                rel.extend(edge_homed(rng, cluster.grid(), 12));
                rel
            })
            .collect();
        let local: Vec<Vec<LocalRect>> = (relations.iter())
            .map(|rel| rel.iter().copied().zip(0..).collect())
            .collect();
        let builder = StoreBuilder::new(cluster.grid());
        Self {
            bytes: (relations.iter())
                .map(|rel| builder.build(rel).expect("in-extent rectangles"))
                .collect(),
            expected: multiway::normalized(multiway::brute_force_join(query, &local)),
            cluster,
        }
    }

    /// The stores, opened whole.
    fn open(&self) -> Vec<StoredDataset> {
        (self.bytes.iter())
            .map(|b| StoredDataset::from_bytes(b).expect("a store just built"))
            .collect()
    }
}

#[test]
fn map_side_gathers_every_tuple_on_uneven_grids_from_every_start() {
    // (cols, rows, width): the last is the 3:1 extent.
    let grids = [(3, 3, EXTENT), (7, 5, EXTENT), (8, 8, 3.0 * EXTENT)];
    let mut reference_tuples = 0u64;
    for (g, &grid) in grids.iter().enumerate() {
        let cell = grid.2 / f64::from(grid.0);
        // The smallest relation seeds: a chain from its end and its
        // middle, a star from its centre and from a leaf, a cycle, and a
        // containment probed from the content and from the container.
        let shapes = [
            (format!("A ov B and B ra({cell}) C"), [24, 40, 40]),
            (format!("A ov B and B ra({cell}) C"), [40, 24, 40]),
            ("C ov L1 and C ov L2".to_string(), [16, 40, 40]),
            ("C ov L1 and C ov L2".to_string(), [40, 16, 40]),
            (
                format!("A ov B and B ra({cell}) C and C ov A"),
                [40, 40, 24],
            ),
            ("A contains B and B ov C".to_string(), [40, 40, 24]),
            ("A contains B and B ov C".to_string(), [24, 40, 40]),
        ];
        for (shape, (text, sizes)) in shapes.iter().enumerate() {
            let query = Query::parse(text).unwrap_or_else(|e| panic!("{text}: {e:?}"));
            for round in 0..2u64 {
                let seed = 90_000 + g as u64 * 100 + shape as u64 * 10 + round;
                let case =
                    StoredCase::generate(&mut StdRng::seed_from_u64(seed), &query, sizes, grid);
                let stores = case.open();
                let stores: Vec<&StoredDataset> = stores.iter().collect();
                // Map-side tallies each tuple at its §6.2 cell, the one
                // `dedup` computes, with few divisions of its own.
                let cells = case.cluster.grid();
                let rects: Vec<Vec<Rect>> = stores.iter().map(|s| s.materialize()).collect();
                let mut tally = vec![0u64; cells.num_cells() as usize];
                for tuple in &case.expected {
                    let members = tuple.iter().zip(&rects).map(|(&id, r)| &r[id as usize]);
                    tally[dedup::multiway_tuple_cell_of(cells, members).0 as usize] += 1;
                }
                let run = StoredRun::new(&query, &stores).algorithm(Algorithm::MapSide);
                let partial = case
                    .cluster
                    .submit_stored_partial(&run, 0..cells.num_cells());
                assert!(
                    partial.expect("fault-free run").tally == tally,
                    "map-side over `{text}` {sizes:?} on grid {grid:?}, seed {seed}: \
                     a tuple tallied at another cell"
                );
                // The shuffle algorithms read the same stores' runs as
                // their map input.
                for alg in Algorithm::ALL.into_iter().chain([Algorithm::MapSide]) {
                    let run = StoredRun::new(&query, &stores).algorithm(alg);
                    let got = case.cluster.submit_stored(&run).expect("fault-free run");
                    let counted = case.cluster.submit_stored(&run.counting());
                    let what = format!(
                        "{} over `{text}` {sizes:?} on grid {grid:?}, seed {seed}",
                        alg.name()
                    );
                    assert!(
                        got.tuples == case.expected,
                        "{what}: {} tuples, the reference has {}",
                        got.tuples.len(),
                        case.expected.len()
                    );
                    assert_eq!(
                        counted.expect("fault-free run").tuple_count,
                        case.expected.len() as u64,
                        "{what}: a tuple was counted twice or not at all"
                    );
                }
                reference_tuples += case.expected.len() as u64;
            }
        }
    }
    assert!(reference_tuples > 100_000, "{reference_tuples} tuples");
}

/// Everything of a map-side output but the wall-clock fields, which the
/// gatherer stamps.
fn logical(mut out: JoinOutput) -> String {
    for job in &mut out.report.jobs {
        job.reduce_wall = Duration::ZERO;
        job.total_wall = Duration::ZERO;
        job.index_open_wall = Duration::ZERO;
    }
    format!("{out:?}")
}

#[test]
fn sharded_map_side_gathers_to_the_single_node_output_for_any_shard_count() {
    let query = Query::parse("A ov B and B ra(125) C").unwrap();
    let case = StoredCase::generate(
        &mut StdRng::seed_from_u64(64),
        &query,
        &[60, 80, 80],
        (8, 8, EXTENT),
    );
    let whole = case.open();
    let whole: Vec<&StoredDataset> = whole.iter().collect();
    for count_only in [false, true] {
        let single = StoredRun::new(&query, &whole)
            .algorithm(Algorithm::MapSide)
            .count_only(count_only);
        let single = case.cluster.submit_stored(&single).expect("single node");
        assert_eq!(single.tuple_count, case.expected.len() as u64);
        assert_eq!(single.report.jobs[0].job_name, "map-side");
        let single = logical(single);
        for shard_count in [3, 5, 7] {
            let ranges = shards::seed_cell_ranges(64, shard_count);
            assert_eq!(ranges.len(), shard_count as usize);
            let partials = (ranges.into_iter())
                .map(|range| {
                    // Each shard opens the stores for its own cells.
                    let scoped: Vec<StoredDataset> = (case.bytes.iter())
                        .map(|b| StoredDataset::from_bytes_scoped(b, range.clone()))
                        .collect::<Result<_, _>>()
                        .expect("a store just built");
                    let scoped: Vec<&StoredDataset> = scoped.iter().collect();
                    let run = StoredRun::new(&query, &scoped).count_only(count_only);
                    case.cluster.submit_stored_partial(&run, range)
                })
                .collect::<Result<Vec<_>, _>>()
                .expect("fault-free shards");
            let spec = GatherSpec {
                record_total: whole.iter().map(|s| s.record_count()).sum(),
                count_only,
                open_wall: Duration::ZERO,
                join_wall: Duration::ZERO,
                input_fingerprint: shards::combined_fingerprint(&whole),
            };
            assert_eq!(
                logical(shards::gather(partials, &spec)),
                single,
                "{shard_count} shards, count_only = {count_only}"
            );
        }
    }
}

/// `n` rectangles for a store on `grid` whose start points sit where the
/// store's home cell is decided: on an interior column or row boundary —
/// as the grid computes it or as the lattice product — or on the right or
/// top edge of the extent. One in three is a point; the first covers the
/// whole extent.
fn edge_homed(rng: &mut StdRng, grid: &Grid, n: usize) -> Vec<Rect> {
    let ((x0, xn), (y0, yn)) = (grid.x_range(), grid.y_range());
    let (cols, rows) = (grid.cols(), grid.rows());
    let (cw, ch) = ((xn - x0) / f64::from(cols), (yn - y0) / f64::from(rows));
    let mut out = vec![grid.extent()];
    while out.len() < n {
        // Column `k`'s left boundary; `k = cols` is the right edge.
        let k = rng.random_range(1..=cols);
        let x = match (k == cols, rng.random_range(0..2)) {
            (true, _) => xn,
            (false, 0) => grid.cell_rect(grid.cell_at(k, 0)).min_x(),
            (false, _) => x0 + f64::from(k) * cw,
        };
        // Row `k`'s top boundary; `k = 0` is the top edge.
        let k = rng.random_range(0..rows);
        let y = match (k == 0, rng.random_range(0..2)) {
            (true, _) => yn,
            (false, 0) => grid.cell_rect(grid.cell_at(0, k)).max_y(),
            (false, _) => yn - f64::from(k) * ch,
        };
        let (l, b) = match rng.random_range(0..3) {
            0 => (0.0, 0.0),
            _ => (
                rng.random_range(0.0..2.0 * cw),
                rng.random_range(0.0..2.0 * ch),
            ),
        };
        let r = Rect::from_bounds(x, (y - b).max(y0), (x + l).min(xn), y);
        out.push(r.expect("in-extent bounds"));
    }
    out
}

/// A map-side run holds a slot per seed cell and brings a helper only for
/// a slot that is free when it starts. Beside a job holding every slot but
/// one it runs on its caller alone, and returns what the lone, two-worker
/// run returns: tuples, tally and every logical counter.
#[test]
fn map_side_beside_a_saturating_job_equals_the_lone_run() {
    let query = Query::parse("A ov B and B ra(125) C").unwrap();
    let case = StoredCase::generate(
        &mut StdRng::seed_from_u64(65),
        &query,
        &[60, 80, 80],
        (8, 8, EXTENT),
    );
    let stores = case.open();
    let stores: Vec<&StoredDataset> = stores.iter().collect();
    // The case's grid under a pool of two slots, whatever the machine.
    let cl = Cluster::new(ClusterConfig {
        grid_cols: 8,
        grid_rows: 8,
        engine: EngineConfig::default().with_slots(2),
        ..ClusterConfig::for_space((0.0, EXTENT), (0.0, EXTENT), 1)
    });
    let scheduler = cl.engine().scheduler();
    let both = |run: &StoredRun<'_>| {
        let out = cl.submit_stored(run).expect("fault-free run");
        let partial = cl
            .submit_stored_partial(run, 0..64)
            .expect("fault-free run");
        // The flat rows, sorted: worker order must not matter.
        let mut rows: Vec<&[u32]> = partial.ids.chunks_exact(partial.arity).collect();
        rows.sort_unstable();
        (logical(out), rows.concat(), partial.tally)
    };
    for count_only in [false, true] {
        let run = StoredRun::new(&query, &stores)
            .algorithm(Algorithm::MapSide)
            .count_only(count_only);
        let lone = both(&run);
        let blocker = scheduler.register(u64::MAX, 0, 1);
        scheduler.acquire(u64::MAX);
        assert_eq!(scheduler.available(), 1);
        let beside = both(&run);
        scheduler.release(u64::MAX);
        drop(blocker);
        assert!(beside == lone, "count_only = {count_only}");
        assert_eq!(
            lone.1.len(),
            if count_only {
                0
            } else {
                3 * case.expected.len()
            }
        );
        assert_eq!(lone.2.iter().sum::<u64>(), case.expected.len() as u64);
        assert_eq!(scheduler.available(), 2);
    }
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

    // Every thread submits its own cascade at the same barrier, with
    // nearest-neighbor joins running beside them until the last reports:
    // each cascade's DFS traffic must read exactly as in its input's solo
    // run, however many runs move DFS bytes at once.
    const NEIGHBORS: usize = 2;
    let dfs = |r: &MetricsReport| {
        (
            r.dfs_read_bytes,
            r.dfs_write_bytes,
            r.dfs_transient_read_failures,
        )
    };
    let solo_dfs: Vec<(u64, u64, u64)> = inputs
        .iter()
        .map(|relations| {
            let slices: Vec<&[Rect]> = relations.iter().map(Vec::as_slice).collect();
            let cascade = JoinRun::new(&query, &slices).algorithm(Algorithm::TwoWayCascade);
            dfs(&cluster(4).submit(&cascade).unwrap().report)
        })
        .collect();
    assert!(solo_dfs.iter().all(|&(_, written, _)| written > 0));
    let barrier = std::sync::Barrier::new(THREADS + NEIGHBORS);
    let reported = AtomicUsize::new(0);
    let wrong: Vec<String> = std::thread::scope(|s| {
        let neighbors: Vec<_> = inputs[..NEIGHBORS]
            .iter()
            .map(|relations| {
                let (cl, barrier, reported) = (&cl, &barrier, &reported);
                s.spawn(move || {
                    for run in 0..RUNS {
                        barrier.wait();
                        while reported.load(Ordering::Acquire) < THREADS * (run + 1) {
                            let _ = try_knn_join(cl, &relations[0], &relations[1], 2);
                        }
                        barrier.wait();
                    }
                })
            })
            .collect();
        let cascades: Vec<_> = inputs
            .iter()
            .zip(&solo_dfs)
            .map(|(relations, &solo)| {
                let (cl, query, barrier, reported) = (&cl, &query, &barrier, &reported);
                s.spawn(move || {
                    let slices: Vec<&[Rect]> = relations.iter().map(Vec::as_slice).collect();
                    let cascade = JoinRun::new(query, &slices).algorithm(Algorithm::TwoWayCascade);
                    let mut wrong = Vec::new();
                    for run in 0..RUNS {
                        barrier.wait();
                        let got = cl.submit(&cascade).map(|out| dfs(&out.report));
                        reported.fetch_add(1, Ordering::Release);
                        barrier.wait();
                        match got {
                            Ok(got) if got == solo => {}
                            Ok(got) => wrong.push(format!(
                                "run {run}: (read, written, transient failures) \
                                 got {got:?}, solo {solo:?}"
                            )),
                            Err(e) => wrong.push(format!("run {run}: {e}")),
                        }
                    }
                    wrong
                })
            })
            .collect();
        for h in neighbors {
            h.join().expect("neighbor thread");
        }
        cascades
            .into_iter()
            .flat_map(|h| h.join().expect("cascade thread"))
            .collect()
    });
    assert!(wrong.is_empty(), "{wrong:?}");
}
