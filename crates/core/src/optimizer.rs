//! The cost-based algorithm optimizer behind [`Algorithm::Auto`].
//!
//! The paper fixes the algorithm per experiment; this module *chooses*.
//! From one statistic per bound relation — its records per home cell and
//! its [`Sides`] (Σl, Σb, Σl·b and the largest sides), which a store folds
//! at open and a slice in one pass — it estimates, per candidate
//! algorithm, the records communicated, the records materialized on the
//! DFS, the number of map-reduce rounds and the local join work, combines
//! them into one scalar cost, and picks the cheapest plan. For the
//! hypercube it also derives the share vector; the spatial algorithms
//! inherit the cluster's reducer grid. Nothing is sampled: over stores a
//! plan costs O(cells), so no caller needs to keep one.
//!
//! The same statistic orders the 2-way cascade's conditions
//! ([`cascade_order`], §6.1's "optimal order" footnote). That is opt-in:
//! a plan prices the cascade over the stages it runs for the query as
//! written (both walk `cascade::execution_order`) and never reorders, so a
//! pinned `cascade` and an `auto` that chose it run the same jobs.
//!
//! Everything is a pure function of `(query, relations, grid)`: the
//! statistic is exact, shares are enumerated deterministically, and cost
//! arithmetic avoids platform-dependent operations — so planner decisions
//! can be pinned in golden tests and cache keys can rely on the same query
//! always resolving to the same concrete algorithm.
//!
//! # Estimates
//!
//! In a cell `c` at column `col` and row `row` of a `cols × rows` grid of
//! `w × h` cells, with `n(c)` records of a relation homed there and the
//! relation's mean length `l̄`, breadth `b̄` and area `lb̄`:
//!
//! - `f1` is exact: `(cols − col)(rows − row)` cells.
//! - The split, the marking proxy and `f2` are expectations for a
//!   mean-sided body whose start is uniform in its cell. Along one axis a
//!   body of length `s` spans `1 + min(s / w, cols − 1 − col)` cells in
//!   expectation (the [`mwsj_partition::CellSpan`] length), so the split is
//!   `(1 + min(l̄/w, ·))(1 + min(b̄/h, ·))` and `f2` the same for the body
//!   stretched by the C-Rep-L reach. A body is *marked* when its
//!   `d`-enlargement leaves its cell: it stays with probability
//!   `(w − d·[col > 0] − (l̄ + d)·[col < cols − 1]) / w`, clipped to
//!   `[0, 1]`, times the same along y.
//! - A triple's pair count is `Σ_c n_a(c)·n_b(c)·E[M] / (w·h)`, where `M`
//!   is the area a body of `b` must start in to satisfy the predicate with
//!   a body of `a` (each side's density held constant around the cell):
//!   `(l_a + l_b)(b_a + b_b)` for overlap, that plus
//!   `2d(l_a + l_b + b_a + b_b) + πd²` for `ra(d)`, and
//!   `(l_a − l_b)⁺(b_a − b_b)⁺` of the means for `Contains`. It is capped
//!   at `n_a·n_b`, and feeds the cascade, the map-side matched pairs and
//!   [`cascade_order`].
//!
//! # Cost model
//!
//! For each candidate the model estimates, in units of *records*:
//!
//! - `comm_records` — map output records over all rounds: the shuffle
//!   volume, the dominant term of every algorithm's runtime here and in
//!   the paper's tables.
//! - `dfs_records` — records written to and re-read from the DFS between
//!   rounds (the cascade's intermediates, C-Rep's marked rectangles), charged
//!   `DFS_WEIGHT` each: a DFS round-trip costs more than a shuffled
//!   record (checksummed write + read + decode).
//! - `jobs` — map-reduce rounds, charged `JOB_OVERHEAD` records each:
//!   per-job setup, task scheduling and commit barriers.
//! - `local_pairs` — candidate pairs the reducers' join kernels must
//!   consider, charged `PAIR_WEIGHT` each. The spatial algorithms
//!   deliver pre-filtered, co-located rectangles, so their pair term is
//!   folded into `comm_records`; the hypercube delivers *every* pair of
//!   co-hashed rectangles unfiltered, so its kernel work scales with
//!   `Σ_t n_l·n_r·Π_{j∉{l,r}} s_j` and must be charged explicitly —
//!   without this term the hypercube's modest communication would always
//!   win and the optimizer would lose the paper's Table 2 rows.
//!
//! Weights are calibrated against this repo's in-process engine via the
//! `tables` bench's `opt` spec (`BENCH_opt.json`), not Hadoop: the acceptance bar is that
//! `auto` lands within ~15% of the best manual choice on every Table 2
//! row of *this* implementation.

use std::f64::consts::PI;

use mwsj_geom::Rect;
use mwsj_partition::{CellId, Grid};
use mwsj_query::{Predicate, Query, Triple};
use mwsj_store::Sides;

use crate::algorithms::controlled_replicate::limited_reach;
use crate::algorithms::hypercube::derive_shares;
use crate::algorithms::{cascade, Algorithm, Inputs};

/// Cost charged per map-reduce round, in record units.
const JOB_OVERHEAD: f64 = 2_000.0;

/// Cost multiplier for a DFS round-trip record relative to a shuffled one.
const DFS_WEIGHT: f64 = 3.0;

/// Cost per unfiltered candidate pair at a hypercube reducer.
const PAIR_WEIGHT: f64 = 0.02;

/// One bound relation as the planner sees it: its records per home cell
/// and the means of its [`Sides`].
struct Relation {
    /// Records homed at each cell, row-major.
    homes: Vec<u32>,
    /// Records.
    n: f64,
    /// Mean length, breadth and area of a body (0 without records).
    l: f64,
    b: f64,
    lb: f64,
    /// The largest length and breadth.
    max_sides: (f64, f64),
}

impl Relation {
    fn new((homes, sides): (Vec<u32>, Sides)) -> Self {
        let n: f64 = homes.iter().map(|&k| f64::from(k)).sum();
        let mean = |sum: f64| if n > 0.0 { sum / n } else { 0.0 };
        Self {
            n,
            l: mean(sides.sum_l),
            b: mean(sides.sum_b),
            lb: mean(sides.sum_lb),
            max_sides: (sides.max_l, sides.max_b),
            homes,
        }
    }
}

/// Every bound relation's statistic.
fn relations(inputs: Inputs<'_>, grid: &Grid) -> Vec<Relation> {
    (0..inputs.len())
        .map(|pos| Relation::new(inputs.statistic(pos, grid)))
        .collect()
}

/// The expected area a body of `b` must start in, relative to a body of
/// `a`'s start, to satisfy `predicate` (`a` on the triple's left).
fn match_area(predicate: Predicate, a: &Relation, b: &Relation) -> f64 {
    let overlap = a.lb + a.l * b.b + b.l * a.b + b.lb;
    match predicate {
        Predicate::Overlap => overlap,
        Predicate::Range(d) => overlap + 2.0 * d * (a.l + b.l + a.b + b.b) + PI * d * d,
        Predicate::Contains => (a.l - b.l).max(0.0) * (a.b - b.b).max(0.0),
    }
}

/// Estimated selectivity of one triple: its pair count over the pairs
/// of its two relations (see the module docs).
fn selectivity(t: &Triple, relations: &[Relation], grid: &Grid) -> f64 {
    let (a, b) = (&relations[t.left.index()], &relations[t.right.index()]);
    if a.n == 0.0 || b.n == 0.0 {
        return 0.0;
    }
    let cell = grid.cell_rect(CellId(0));
    let co_homed: f64 = (a.homes.iter().zip(&b.homes))
        .map(|(&x, &y)| f64::from(x) * f64::from(y))
        .sum();
    let pairs = co_homed * match_area(t.predicate, a, b) / (cell.l() * cell.b());
    (pairs / (a.n * b.n)).min(1.0)
}

/// Expected cells a body of length `len` spans along one axis when its
/// start is uniform in a cell of size `cell` with `room` cells beyond it
/// before the space ends.
fn span(len: f64, cell: f64, room: u32) -> f64 {
    1.0 + (len / cell).min(f64::from(room))
}

/// Probability that a body of length `len` whose start is uniform in a
/// cell of size `cell`, enlarged by `d`, stays inside the cell along one
/// axis: the enlargement may not cross the near wall unless that is the
/// space's edge (`near`), nor the body plus it the far wall (`far`).
fn stays(len: f64, d: f64, cell: f64, near: bool, far: bool) -> f64 {
    let need = if near { d } else { 0.0 } + if far { len + d } else { 0.0 };
    ((cell - need) / cell).clamp(0.0, 1.0)
}

/// The estimated cost breakdown of one candidate algorithm.
#[derive(Debug, Clone)]
pub struct CandidateCost {
    /// The candidate.
    pub algorithm: Algorithm,
    /// Map-reduce rounds the candidate needs.
    pub jobs: u32,
    /// Estimated map output records over all rounds.
    pub comm_records: f64,
    /// Estimated records round-tripped through the DFS between rounds.
    pub dfs_records: f64,
    /// Estimated unfiltered candidate pairs at the reducers (hypercube
    /// only; 0 for the spatial algorithms, whose local work is folded
    /// into `comm_records`).
    pub local_pairs: f64,
    /// The combined scalar cost the optimizer minimizes.
    pub cost: f64,
}

impl CandidateCost {
    fn new(algorithm: Algorithm, jobs: u32, comm: f64, dfs: f64, pairs: f64) -> Self {
        Self {
            algorithm,
            jobs,
            comm_records: comm,
            dfs_records: dfs,
            local_pairs: pairs,
            cost: comm + DFS_WEIGHT * dfs + JOB_OVERHEAD * f64::from(jobs) + PAIR_WEIGHT * pairs,
        }
    }
}

/// A costed execution plan: the chosen algorithm plus the granularity
/// parameters and the full candidate table (for `explain`).
#[derive(Debug, Clone)]
pub struct Plan {
    /// The optimizer's choice — always a concrete algorithm, never
    /// [`Algorithm::Auto`].
    pub algorithm: Algorithm,
    /// Reducers the plan runs on: one per grid cell.
    pub reducers: u32,
    /// The reducer grid granularity `(cols, rows)` of the spatial
    /// algorithms.
    pub grid: (u32, u32),
    /// The hypercube share vector (one share per relation position) —
    /// populated whenever the hypercube was costed, used when it is
    /// chosen.
    pub shares: Option<Vec<u32>>,
    /// Every candidate's estimated cost, cheapest first.
    pub candidates: Vec<CandidateCost>,
}

impl Plan {
    /// Renders the plan as a JSON object (the `explain` wire format).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"algorithm\":\"{}\",\"reducers\":{},\"grid\":[{},{}],\"shares\":",
            self.algorithm, self.reducers, self.grid.0, self.grid.1
        ));
        match &self.shares {
            Some(shares) => {
                s.push('[');
                for (i, sh) in shares.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&sh.to_string());
                }
                s.push(']');
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"candidates\":[");
        for (i, c) in self.candidates.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"algorithm\":\"{}\",\"jobs\":{},\"comm_records\":{:.1},\"dfs_records\":{:.1},\"local_pairs\":{:.1},\"cost\":{:.1}}}",
                c.algorithm, c.jobs, c.comm_records, c.dfs_records, c.local_pairs, c.cost
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Estimated communication and DFS volume of the 2-way cascade over the
/// stages it runs ([`cascade::execution_order`] — the query is never
/// reordered here), from the estimated selectivity of each triple: each
/// stage shuffles the previous intermediate plus the newly-bound base
/// relation and materializes its output on the DFS for the next.
fn cascade_cost(query: &Query, sizes: &[f64], selectivities: &[f64]) -> CandidateCost {
    let triples = query.triples();
    let mut comm = 0.0;
    let mut dfs = 0.0;
    let mut intermediate = 0.0;
    for (i, stage) in cascade::execution_order(query) {
        let sel = selectivities[i];
        match stage {
            cascade::Stage::Base => {
                let (l, r) = (triples[i].left.index(), triples[i].right.index());
                comm += sizes[l] + sizes[r];
                intermediate = sel * sizes[l] * sizes[r];
            }
            // Every later stage also charges the DFS round-trip that
            // carries an intermediate result between two stages.
            cascade::Stage::Extend { new, .. } => {
                let n_new = sizes[new.index()];
                comm += intermediate + n_new;
                intermediate *= sel * n_new;
                dfs += intermediate;
            }
            cascade::Stage::Filter => {
                // A filter only shrinks the intermediate.
                comm += intermediate;
                intermediate *= sel.min(1.0);
                dfs += intermediate;
            }
        }
    }
    CandidateCost::new(
        Algorithm::TwoWayCascade,
        triples.len() as u32,
        comm,
        dfs,
        0.0,
    )
}

/// Returns the query with its conditions reordered for the 2-way cascade
/// (§6.1's footnote assumes "the optimal order" without saying how to find
/// it): a greedy order that keeps the estimated intermediate result small
/// — start with the condition of smallest estimated output, then
/// repeatedly append the connected condition whose estimated growth
/// factor is smallest, so every prefix stays connected and the cascade
/// executes the conditions exactly as listed.
///
/// `relations[i]` is the dataset bound to position `i`, inside `grid`'s
/// space; selectivities are the ones [`Cluster::plan`](crate::Cluster::plan)
/// estimates for the same datasets. Reordering conjuncts never changes the
/// result, only the cascade's intermediate sizes; position numbering is
/// preserved.
///
/// ```
/// use mwsj_core::optimizer::cascade_order;
/// use mwsj_core::partition::Grid;
/// use mwsj_geom::Rect;
/// use mwsj_query::Query;
///
/// let q = Query::parse("A ov B and B ov C").unwrap();
/// let a = vec![Rect::new(0.0, 10.0, 5.0, 5.0)];
/// let b = vec![Rect::new(4.0, 10.0, 5.0, 5.0)];
/// let c = vec![Rect::new(8.0, 10.0, 5.0, 5.0)];
/// let grid = Grid::square((0.0, 16.0), (0.0, 16.0), 2);
/// let planned = cascade_order(&q, &[&a, &b, &c], &grid);
/// assert_eq!(planned.triples().len(), q.triples().len());
/// ```
#[must_use]
pub fn cascade_order(query: &Query, relations: &[&[Rect]], grid: &Grid) -> Query {
    cascade_order_inputs(query, Inputs::Memory(relations), grid)
}

/// [`cascade_order`] over whatever a run binds.
pub(crate) fn cascade_order_inputs(query: &Query, inputs: Inputs<'_>, grid: &Grid) -> Query {
    assert_eq!(inputs.len(), query.num_relations());
    let rels = relations(inputs, grid);
    let size = |r: mwsj_query::RelationId| rels[r.index()].n;
    let mut remaining: Vec<(Triple, f64)> = query
        .triples()
        .iter()
        .map(|t| (*t, selectivity(t, &rels, grid)))
        .collect();

    let mut ordered: Vec<Triple> = Vec::with_capacity(remaining.len());
    let mut bound = vec![false; query.num_relations()];
    while !remaining.is_empty() {
        // The growth a condition multiplies the intermediate by: its
        // standalone output for the first, 0 for a both-bound filter (it
        // can only shrink), else selectivity × the new relation's size.
        let growth = |(t, sel): &(Triple, f64)| match cascade::Stage::of(t, &bound) {
            cascade::Stage::Base if ordered.is_empty() => sel * size(t.left) * size(t.right),
            // Not connected to the bound set yet.
            cascade::Stage::Base => f64::INFINITY,
            cascade::Stage::Extend { new, .. } => sel * size(new),
            cascade::Stage::Filter => 0.0,
        };
        let pick = (0..remaining.len())
            .min_by(|&i, &j| growth(&remaining[i]).total_cmp(&growth(&remaining[j])))
            .expect("non-empty");
        let (t, _) = remaining.remove(pick);
        bound[t.left.index()] = true;
        bound[t.right.index()] = true;
        ordered.push(t);
    }

    // Rebuild the query with the conditions in the new order. Declaring
    // every relation first pins the original position numbering, so the
    // caller's positional dataset bindings stay valid.
    let mut builder = Query::builder();
    for r in query.relations() {
        builder = builder.declare(query.name(r));
    }
    for t in &ordered {
        builder = builder.condition(t.predicate, query.name(t.left), query.name(t.right));
    }
    builder
        .build()
        .expect("reordering a valid query keeps it valid")
}

/// Total unfiltered candidate pairs at the hypercube reducers: a pair of
/// rectangles from the relations of triple `t` is co-hashed at
/// `Π_{j∉{l,r}} s_j` reducers.
fn hypercube_pairs(triples: &[Triple], sizes: &[f64], shares: &[u32]) -> f64 {
    let product: f64 = shares.iter().map(|&s| f64::from(s)).product();
    triples
        .iter()
        .map(|t| {
            let (l, r) = (t.left.index(), t.right.index());
            sizes[l] * sizes[r] * product / (f64::from(shares[l]) * f64::from(shares[r]))
        })
        .sum()
}

/// Builds the costed plan for a query over whatever a run binds, inside
/// `grid`'s space, on a cluster partitioning it by `grid`, one reducer per
/// cell. Deterministic: same inputs, same plan (see the module docs).
/// [`Cluster::plan`](crate::Cluster::plan) and
/// [`Cluster::plan_stored`](crate::Cluster::plan_stored) validate the
/// inputs first. Over *stored* datasets the shuffle-free
/// [`Algorithm::MapSide`] is a sixth candidate. Map-side moves
/// zero records — the inputs are already partitioned on the grid — so its
/// cost is one round of overhead plus the estimated matched pairs the
/// local kernels touch.
pub(crate) fn plan_inputs(query: &Query, inputs: Inputs<'_>, grid: &Grid) -> Plan {
    let reducers = grid.num_cells();
    assert_eq!(inputs.len(), query.num_relations());
    let rels = relations(inputs, grid);
    let sizes: &[f64] = &rels.iter().map(|r| r.n).collect::<Vec<_>>();
    let max_sides = (rels.iter().map(|r| r.max_sides))
        .fold((0.0, 0.0), |(l, b), (rl, rb)| (rl.max(l), rb.max(b)));
    let reach = limited_reach(query, max_sides, grid);
    let d = query.max_range_distance();
    let cell = grid.cell_rect(CellId(0));
    let (w, h) = (cell.l(), cell.b());

    // All-Replicate: one round, every rectangle shuffled f1-fold. C-Rep:
    // round 1 splits everything and joins per cell; only the marked
    // rectangles make the DFS round-trip and are replicated by round 2,
    // f1-fold (f2-fold under the C-Rep-L bound).
    let [mut all_rep_comm, mut round1, mut marked, mut crep_round2, mut crep_l_round2] = [0.0; 5];
    for c in grid.cells() {
        let (col, row) = (grid.col_of(c), grid.row_of(c));
        let (room_x, room_y) = (grid.cols() - 1 - col, grid.rows() - 1 - row);
        let f1 = f64::from(room_x + 1) * f64::from(room_y + 1);
        for (rel, &(reach_x, reach_y)) in rels.iter().zip(&reach) {
            let n = f64::from(rel.homes[c.0 as usize]);
            let split = span(rel.l, w, room_x) * span(rel.b, h, room_y);
            let f2 = span(rel.l + reach_x, w, room_x) * span(rel.b + reach_y, h, room_y);
            let stay =
                stays(rel.l, d, w, col > 0, room_x > 0) * stays(rel.b, d, h, row > 0, room_y > 0);
            let n_marked = n * (1.0 - stay);
            all_rep_comm += n * f1;
            round1 += n * split;
            marked += n_marked;
            crep_round2 += n_marked * f1;
            crep_l_round2 += n_marked * f2;
        }
    }
    // Hypercube: one round, relation i shuffled Π_{j≠i} s_j-fold.
    let share_sizes: Vec<u64> = sizes.iter().map(|&n| n as u64).collect();
    let shares = derive_shares(&share_sizes, reducers);
    let hyper_comm: f64 = {
        let product: f64 = shares.iter().map(|&s| f64::from(s)).product();
        (sizes.iter().zip(shares.iter()))
            .map(|(n, &sh)| n * product / f64::from(sh))
            .sum()
    };
    let pairs = hypercube_pairs(query.triples(), sizes, &shares);
    // One estimate per triple, shared by the cascade's stages and
    // map-side's matched-pair term.
    let selectivities: Vec<f64> = query
        .triples()
        .iter()
        .map(|t| selectivity(t, &rels, grid))
        .collect();

    let mut candidates = vec![
        cascade_cost(query, sizes, &selectivities),
        CandidateCost::new(Algorithm::AllReplicate, 1, all_rep_comm, 0.0, 0.0),
        CandidateCost::new(
            Algorithm::ControlledReplicate,
            2,
            round1 + crep_round2,
            marked,
            0.0,
        ),
        CandidateCost::new(
            Algorithm::ControlledReplicateLimit,
            2,
            round1 + crep_l_round2,
            marked,
            0.0,
        ),
        CandidateCost::new(Algorithm::Hypercube, 1, hyper_comm, 0.0, pairs),
    ];
    if let Inputs::Stored(_) = inputs {
        // Map-side over stored co-partitioned inputs: zero communication,
        // zero DFS traffic, one round of driving overhead, and local work
        // proportional to the matched pairs the kernels enumerate.
        let matched: f64 = query
            .triples()
            .iter()
            .zip(&selectivities)
            .map(|(t, sel)| sel * sizes[t.left.index()] * sizes[t.right.index()])
            .sum();
        candidates.push(CandidateCost::new(Algorithm::MapSide, 1, 0.0, 0.0, matched));
    }
    // Cheapest first; f64 costs are finite by construction. The sort is
    // stable, so equal costs keep the `Algorithm::ALL` order — another
    // determinism guarantee for the golden pins.
    candidates.sort_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"));

    Plan {
        algorithm: candidates[0].algorithm,
        reducers,
        grid: (grid.cols(), grid.rows()),
        shares: Some(shares),
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_store::StoredDataset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn relation(n: usize, seed: u64, side: f64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.random_range(0.0..1000.0 - side);
                let y = rng.random_range(side..1000.0);
                Rect::new(
                    x,
                    y,
                    rng.random_range(0.0..side),
                    rng.random_range(0.0..side),
                )
            })
            .collect()
    }

    fn grid8() -> Grid {
        Grid::new((0.0, 1000.0), (0.0, 1000.0), 8, 8)
    }

    #[test]
    fn plan_is_deterministic() {
        let q = Query::parse("A ov B and B ov C").unwrap();
        let a = relation(300, 1, 30.0);
        let b = relation(300, 2, 30.0);
        let c = relation(300, 3, 30.0);
        let grid = grid8();
        let p1 = plan_inputs(&q, Inputs::Memory(&[&a, &b, &c]), &grid);
        let p2 = plan_inputs(&q, Inputs::Memory(&[&a, &b, &c]), &grid);
        assert_eq!(p1.algorithm, p2.algorithm);
        assert_eq!(p1.to_json(), p2.to_json());
        // A plan is a function of its own inputs only: other datasets
        // planned in between — the same rectangles in other positions, a
        // relation of the same length — leave no trace in the next one.
        let d = relation(300, 4, 30.0);
        assert_ne!(
            plan_inputs(&q, Inputs::Memory(&[&c, &b, &a]), &grid).to_json(),
            p1.to_json()
        );
        assert_ne!(
            plan_inputs(&q, Inputs::Memory(&[&a, &b, &d]), &grid).to_json(),
            p1.to_json()
        );
        assert_eq!(
            plan_inputs(&q, Inputs::Memory(&[&a, &b, &c]), &grid).to_json(),
            p1.to_json()
        );
        assert_ne!(p1.algorithm, Algorithm::Auto);
        assert_eq!(p1.candidates.len(), Algorithm::ALL.len());
    }

    #[test]
    fn tiny_inputs_avoid_multi_round_plans() {
        // With a handful of rectangles, per-job overhead dominates: the
        // plan must be a single-round algorithm.
        let q = Query::parse("A ov B").unwrap();
        let a = relation(5, 4, 10.0);
        let b = relation(5, 5, 10.0);
        let grid = grid8();
        let p = plan_inputs(&q, Inputs::Memory(&[&a, &b]), &grid);
        assert_eq!(p.candidates[0].jobs, 1, "plan: {}", p.to_json());
    }

    #[test]
    fn stored_plan_adds_map_side_and_picks_it() {
        let q = Query::parse("A ov B and B ov C").unwrap();
        let grid = grid8();
        let builder = mwsj_store::StoreBuilder::new(&grid);
        let stores: Vec<StoredDataset> = [(300, 1), (300, 2), (300, 3)]
            .iter()
            .map(|&(n, seed)| {
                let bytes = builder.build(&relation(n, seed, 30.0)).unwrap();
                StoredDataset::from_bytes(&bytes).unwrap()
            })
            .collect();
        let refs: Vec<&StoredDataset> = stores.iter().collect();
        let p = plan_inputs(&q, Inputs::Stored(&refs), &grid);
        assert_eq!(p.candidates.len(), Algorithm::ALL.len() + 1);
        assert_eq!(p.algorithm, Algorithm::MapSide, "plan: {}", p.to_json());
        // Deterministic.
        let again = plan_inputs(&q, Inputs::Stored(&refs), &grid);
        assert_eq!(p.to_json(), again.to_json());
        // Each triple's selectivity is estimated once and feeds both the
        // cascade and map-side terms. Pinned byte for byte: f1 (All-Rep)
        // and the hypercube are exact, the rest are the closed forms.
        assert_eq!(
            p.to_json(),
            concat!(
                r#"{"algorithm":"map-side","reducers":64,"grid":[8,8],"shares":[4,4,4],"candidates":["#,
                r#"{"algorithm":"map-side","jobs":1,"comm_records":0.0,"dfs_records":0.0,"local_pairs":158.3,"cost":2003.2},"#,
                r#"{"algorithm":"cascade","jobs":2,"comm_records":977.8,"dfs_records":20.9,"local_pairs":0.0,"cost":5040.4},"#,
                r#"{"algorithm":"crep-l","jobs":2,"comm_records":1395.3,"dfs_records":182.2,"local_pairs":0.0,"cost":5941.8},"#,
                r#"{"algorithm":"crep","jobs":2,"comm_records":5288.2,"dfs_records":182.2,"local_pairs":0.0,"cost":9834.7},"#,
                r#"{"algorithm":"allrep","jobs":1,"comm_records":19229.0,"dfs_records":0.0,"local_pairs":0.0,"cost":21229.0},"#,
                r#"{"algorithm":"hypercube","jobs":1,"comm_records":14400.0,"dfs_records":0.0,"local_pairs":720000.0,"cost":30800.0}]}"#,
            )
        );
        // Map-side never infects the in-memory plan.
        let (a, b, c) = (
            relation(300, 1, 30.0),
            relation(300, 2, 30.0),
            relation(300, 3, 30.0),
        );
        let in_memory = plan_inputs(&q, Inputs::Memory(&[&a, &b, &c]), &grid);
        assert!(in_memory
            .candidates
            .iter()
            .all(|c| c.algorithm != Algorithm::MapSide));
    }

    /// The cascade row of a plan.
    fn cascade_row(p: &Plan) -> String {
        let row = p
            .candidates
            .iter()
            .find(|c| c.algorithm == Algorithm::TwoWayCascade);
        format!("{:?}", row.expect("the cascade is always costed"))
    }

    #[test]
    fn cascade_row_prices_the_stages_that_run() {
        use crate::{Cluster, ClusterConfig, JoinRun};
        let grid = grid8();
        let rels: Vec<Vec<Rect>> = (1..=5).map(|seed| relation(300, seed, 60.0)).collect();
        let cluster = Cluster::new(ClusterConfig::for_space((0.0, 1000.0), (0.0, 1000.0), 8));
        // Each spelling lists a condition before anything binds its
        // endpoints; the cascade defers it, so the spelling is priced (and
        // run) as the one next to it, written in executed order. Same
        // first-mention order within a pair: same positions, same data.
        for (written, executed) in [
            // The chain of ISSUE 22's measurement.
            (
                "A ov B and C ov D and B ov C",
                "A ov B and B ov C and C ov D",
            ),
            // A star on B whose arm B-C-D is written outer pair first.
            (
                "A ov B and C ov D and B ov C and B ov E",
                "A ov B and B ov C and C ov D and B ov E",
            ),
            // A cycle: the closing condition is a filter, not a job.
            (
                "A ov B and C ov D and B ov C and D ov A",
                "A ov B and B ov C and C ov D and D ov A",
            ),
        ] {
            let (written, executed) = (
                Query::parse(written).unwrap(),
                Query::parse(executed).unwrap(),
            );
            let n = written.num_relations();
            let inputs: Vec<&[Rect]> = rels[..n].iter().map(Vec::as_slice).collect();
            let stages = cascade::execution_order(&written);
            let executed_triples: Vec<_> =
                stages.iter().map(|&(i, _)| written.triples()[i]).collect();
            assert_eq!(executed_triples, executed.triples(), "{written}");
            assert_eq!(
                cascade_row(&plan_inputs(&written, Inputs::Memory(&inputs), &grid)),
                cascade_row(&plan_inputs(&executed, Inputs::Memory(&inputs), &grid)),
                "{written}"
            );
            // The walk `cascade_cost` prices is the one `cascade::run`
            // submits: one `cascade-stage-N` job per non-filter stage.
            let priced: Vec<String> = (stages.iter().enumerate())
                .filter(|(_, (_, kind))| *kind != cascade::Stage::Filter)
                .map(|(stage, _)| format!("cascade-stage-{stage}"))
                .collect();
            let run = JoinRun::new(&written, &inputs)
                .algorithm(Algorithm::TwoWayCascade)
                .counting();
            let report = cluster.submit(&run).unwrap().report;
            let submitted: Vec<&str> = report.jobs.iter().map(|j| j.job_name.as_str()).collect();
            assert_eq!(submitted, priced, "{written}");
        }
    }

    #[test]
    fn cascade_order_is_deterministic_connected_and_keeps_positions() {
        use crate::reference;
        let q = Query::parse("A ov B and B ra(30) C and C ov D and D ov A").unwrap();
        let rels: Vec<Vec<Rect>> = (1..=4).map(|seed| relation(60, seed, 40.0)).collect();
        let inputs: Vec<&[Rect]> = rels.iter().map(Vec::as_slice).collect();
        let planned = cascade_order(&q, &inputs, &grid8());
        assert_eq!(
            planned.to_string(),
            cascade_order(&q, &inputs, &grid8()).to_string()
        );
        assert_eq!(planned.triples().len(), q.triples().len());
        // Same relation names in the same positions, so the caller's
        // positional bindings stay valid and the result is the same.
        for r in q.relations() {
            assert_eq!(planned.name(r), q.name(r));
        }
        assert_eq!(
            reference::in_memory_join(&planned, &inputs),
            reference::in_memory_join(&q, &inputs)
        );
        // Every prefix is connected: the cascade runs the planned
        // conditions exactly as listed.
        let listed: Vec<usize> = (0..planned.triples().len()).collect();
        let executed: Vec<usize> = cascade::execution_order(&planned)
            .iter()
            .map(|&(i, _)| i)
            .collect();
        assert_eq!(executed, listed, "planned order: {planned}");
    }

    #[test]
    fn cascade_order_starts_with_the_most_selective_condition() {
        // B-C barely joins (tiny rectangles in a far corner); A-B joins a
        // lot (big rectangles). The order must start with B-C.
        let a = relation(80, 11, 120.0);
        let b = relation(80, 12, 120.0);
        let c = vec![Rect::new(0.5, 1.0, 0.2, 0.2); 80];
        let q = Query::parse("A ov B and B ov C").unwrap();
        let planned = cascade_order(&q, &[&a, &b, &c], &grid8());
        let first = planned.triples()[0];
        assert_eq!(
            (planned.name(first.left), planned.name(first.right)),
            ("B", "C"),
            "planned order: {planned}"
        );
    }

    /// Exact pair counts of every triple, by testing every pair.
    fn brute_force_pairs(q: &Query, rels: &[&[Rect]]) -> Vec<f64> {
        (q.triples().iter())
            .map(|t| {
                let (a, b) = (rels[t.left.index()], rels[t.right.index()]);
                let hits = a
                    .iter()
                    .map(|x| b.iter().filter(|y| t.predicate.eval(x, y)).count());
                hits.sum::<usize>() as f64
            })
            .collect()
    }

    #[test]
    fn pair_counts_are_within_fifteen_percent_of_brute_force() {
        let grid = grid8();
        let rels: Vec<Vec<Rect>> = (1..=3).map(|seed| relation(2_000, seed, 30.0)).collect();
        let slices: Vec<&[Rect]> = rels.iter().map(Vec::as_slice).collect();
        let stats = relations(Inputs::Memory(&slices), &grid);
        for q in ["A ov B and B ov C", "A ra(25) B and B ra(25) C"] {
            let q = Query::parse(q).unwrap();
            let exact = brute_force_pairs(&q, &slices);
            for (t, exact) in q.triples().iter().zip(exact) {
                let estimated = selectivity(t, &stats, &grid) * 2_000.0 * 2_000.0;
                let error = estimated / exact - 1.0;
                assert!(
                    error.abs() < 0.15,
                    "{q}: {estimated:.0} estimated, {exact} exact"
                );
            }
        }
    }

    #[test]
    fn relations_that_share_a_populated_cell_never_price_selectivity_zero() {
        let grid = grid8();
        let q = Query::parse("A ov B").unwrap();
        // Sparse bodies a sample of 600² pairs misses: 5 000 specks each,
        // a thousandth of a cell's side, and one disjoint pair in a cell.
        let (a, b) = (relation(5_000, 21, 0.125), relation(5_000, 22, 0.125));
        let c = [Rect::new(1.0, 120.0, 2.0, 2.0)];
        let d = [Rect::new(100.0, 10.0, 2.0, 2.0)];
        for (left, right) in [(&a[..], &b[..]), (&c, &d)] {
            let stats = relations(Inputs::Memory(&[left, right]), &grid);
            let shared = (stats[0].homes.iter().zip(&stats[1].homes)).any(|(&x, &y)| x * y > 0);
            assert!(shared);
            assert!(selectivity(&q.triples()[0], &stats, &grid) > 0.0);
        }
        // No shared populated cell, no pair.
        let e = [Rect::new(900.0, 120.0, 2.0, 2.0)];
        let stats = relations(Inputs::Memory(&[&c, &e]), &grid);
        assert_eq!(selectivity(&q.triples()[0], &stats, &grid), 0.0);
    }

    #[test]
    fn plan_json_is_valid_shape() {
        let q = Query::parse("A ov B").unwrap();
        let a = relation(50, 6, 20.0);
        let b = relation(50, 7, 20.0);
        let grid = grid8();
        let json = plan_inputs(&q, Inputs::Memory(&[&a, &b]), &grid).to_json();
        assert!(json.starts_with("{\"algorithm\":\""));
        assert!(json.contains("\"candidates\":["));
        assert!(json.contains("\"shares\":["));
        assert!(json.ends_with("]}"));
    }
}
