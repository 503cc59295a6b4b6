//! The cost-based algorithm optimizer behind [`Algorithm::Auto`].
//!
//! The paper fixes the algorithm per experiment; ROADMAP item 1 asks the
//! system to *choose*. From cheap, seeded samples of the bound datasets
//! this module estimates — per candidate algorithm — the records
//! communicated, the records materialized on the DFS, the number of
//! map-reduce rounds and the local join work, combines them into one
//! scalar cost, and picks the cheapest plan. For the hypercube it also
//! derives the share vector; the spatial algorithms inherit the cluster's
//! reducer grid.
//!
//! The same samples order the 2-way cascade's conditions
//! ([`cascade_order`], §6.1's "optimal order" footnote). That is opt-in:
//! [`plan`] prices the cascade over the stages it runs for the query as
//! written (both walk `cascade::execution_order`) and never reorders, so a
//! pinned `cascade` and an `auto` that chose it run the same jobs.
//!
//! Everything is a pure function of `(query, relations, grid)`:
//! sampling uses a fixed seed, shares are enumerated deterministically,
//! and cost arithmetic avoids platform-dependent operations — so planner
//! decisions can be pinned in golden tests and cache keys can rely on the
//! same query always resolving to the same concrete algorithm. The module
//! holds no state: every call draws its samples again, and a caller that
//! plans the same datasets over and over memoizes the *plan* (the server's
//! plan memo does).
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

use mwsj_geom::Rect;
use mwsj_partition::Grid;
use mwsj_query::{Query, Triple};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

use crate::algorithms::controlled_replicate::limited_reach;
use crate::algorithms::hypercube::derive_shares;
use crate::algorithms::{cascade, Algorithm, Inputs};

/// Fixed sampling seed: planner decisions must be a pure function of the
/// inputs (golden-pinnable, cache-key safe), never of run-to-run entropy.
const PLAN_SEED: u64 = 0xC0_57;

/// Sample size per relation. The optimizer compares *algorithms*, and the
/// cascade's cost hinges on pairwise selectivities estimated from
/// `sample²` pairs — at Table 2 densities a 200-rect sample expects only a
/// handful of matches, and that Poisson noise is enough to flip the
/// cascade/C-Rep-L decision. 600 rects per relation keeps sampling cheap
/// (sub-millisecond) while cutting the estimate's relative error ~3x.
const PLAN_SAMPLE: usize = 600;

/// Cost charged per map-reduce round, in record units.
const JOB_OVERHEAD: f64 = 2_000.0;

/// Cost multiplier for a DFS round-trip record relative to a shuffled one.
const DFS_WEIGHT: f64 = 3.0;

/// Cost per unfiltered candidate pair at a hypercube reducer.
const PAIR_WEIGHT: f64 = 0.02;

/// The one sampler: a seeded uniform sample without replacement of up to
/// [`PLAN_SAMPLE`] rectangles from each relation, read by record position
/// (a store's is its storage order, so nothing is materialized). One RNG
/// runs across the relations.
fn sample_relations(inputs: Inputs<'_>) -> Vec<Vec<Rect>> {
    let mut rng = StdRng::seed_from_u64(PLAN_SEED);
    (0..inputs.len())
        .map(|pos| {
            let mut idx: Vec<usize> = (0..inputs.size(pos)).collect();
            idx.shuffle(&mut rng);
            idx.truncate(PLAN_SAMPLE);
            idx.into_iter()
                .map(|i| inputs.record(pos, i).rect)
                .collect()
        })
        .collect()
}

/// Estimates the selectivity of one triple on samples of its two
/// relations: the fraction of sampled pairs satisfying the predicate.
fn estimate_selectivity(t: &Triple, samples: &[Vec<Rect>]) -> f64 {
    let left = &samples[t.left.index()];
    let right = &samples[t.right.index()];
    if left.is_empty() || right.is_empty() {
        return 0.0;
    }
    let mut hits = 0usize;
    for a in left {
        for b in right {
            if t.predicate.eval(a, b) {
                hits += 1;
            }
        }
    }
    hits as f64 / (left.len() * right.len()) as f64
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

/// Per-relation sampled statistics feeding the candidate cost formulas.
struct RelationStats {
    /// Relation cardinality.
    n: f64,
    /// Mean 4th-quadrant replication factor (`f1`) over the sample.
    q4: f64,
    /// Mean split factor (cells a rectangle overlaps).
    split: f64,
    /// Fraction of the sample estimated to be *marked* by C-Rep round 1:
    /// rectangles whose `d`-enlargement overlaps more than one cell. An
    /// interior rectangle with `d` of margin can never satisfy C1-C4, so
    /// this upper-bounds the marking rate while scaling the same way
    /// (rect size + d versus cell size).
    marked: f64,
    /// Mean `f1` factor conditioned on the marked sample (marked
    /// rectangles are the large ones, so their replication factor is
    /// above the relation mean).
    q4_marked: f64,
    /// Like `q4_marked` under the C-Rep-L bound.
    q4_bounded_marked: f64,
}

/// Clamps a rectangle to the grid extent (enlarged probe rectangles may
/// poke outside the space, which the grid treats as a caller error).
fn clamp_to(extent: &Rect, r: &Rect) -> Rect {
    let left = r.min_x().max(extent.min_x());
    let right = r.max_x().min(extent.max_x());
    let top = r.max_y().min(extent.max_y());
    let bottom = r.min_y().max(extent.min_y());
    Rect::new(left, top, (right - left).max(0.0), (top - bottom).max(0.0))
}

fn relation_stats(
    sizes: &[f64],
    samples: &[Vec<Rect>],
    grid: &Grid,
    reach: &[(f64, f64)],
    d: f64,
) -> Vec<RelationStats> {
    let extent = grid.extent();
    sizes
        .iter()
        .zip(samples.iter())
        .zip(reach.iter())
        .map(|((&n, sample), &(reach_x, reach_y))| {
            if sample.is_empty() {
                return RelationStats {
                    n,
                    q4: 1.0,
                    split: 1.0,
                    marked: 0.0,
                    q4_marked: 1.0,
                    q4_bounded_marked: 1.0,
                };
            }
            let mut q4 = 0.0;
            let mut split = 0.0;
            let mut marked = 0usize;
            let mut q4_m = 0.0;
            let mut q4b_m = 0.0;
            for r in sample {
                let f1 = grid.fourth_quadrant_cells(r).len() as f64;
                let f2 = grid.fourth_quadrant_cells_within(r, reach_x, reach_y).len() as f64;
                q4 += f1;
                split += grid.split_cells(r).len() as f64;
                let probe = clamp_to(&extent, &r.enlarge(d));
                if grid.split_cells(&probe).len() > 1 {
                    marked += 1;
                    q4_m += f1;
                    q4b_m += f2;
                }
            }
            let count = sample.len() as f64;
            RelationStats {
                n,
                q4: q4 / count,
                split: split / count,
                marked: marked as f64 / count,
                q4_marked: if marked > 0 {
                    q4_m / marked as f64
                } else {
                    1.0
                },
                q4_bounded_marked: if marked > 0 {
                    q4b_m / marked as f64
                } else {
                    1.0
                },
            }
        })
        .collect()
}

/// Estimated communication and DFS volume of the 2-way cascade over the
/// stages it runs ([`cascade::execution_order`] — the query is never
/// reordered here), from the sampled selectivity of each triple: each
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
/// it): a sampling-based greedy order that keeps the estimated
/// intermediate result small — start with the condition of smallest
/// estimated output, then repeatedly append the connected condition whose
/// estimated growth factor is smallest, so every prefix stays connected
/// and the cascade executes the conditions exactly as listed.
///
/// `relations[i]` is the dataset bound to position `i`; selectivities are
/// estimated on the samples [`plan`] draws for the same datasets.
/// Reordering conjuncts never changes the result, only the cascade's
/// intermediate sizes; position numbering is preserved.
///
/// ```
/// use mwsj_core::optimizer::cascade_order;
/// use mwsj_geom::Rect;
/// use mwsj_query::Query;
///
/// let q = Query::parse("A ov B and B ov C").unwrap();
/// let a = vec![Rect::new(0.0, 10.0, 5.0, 5.0)];
/// let b = vec![Rect::new(4.0, 10.0, 5.0, 5.0)];
/// let c = vec![Rect::new(8.0, 10.0, 5.0, 5.0)];
/// let planned = cascade_order(&q, &[&a, &b, &c]);
/// assert_eq!(planned.triples().len(), q.triples().len());
/// ```
#[must_use]
pub fn cascade_order(query: &Query, relations: &[&[Rect]]) -> Query {
    assert_eq!(relations.len(), query.num_relations());
    let samples = sample_relations(Inputs::Memory(relations));
    let size = |r: mwsj_query::RelationId| relations[r.index()].len() as f64;
    let mut remaining: Vec<(Triple, f64)> = query
        .triples()
        .iter()
        .map(|t| (*t, estimate_selectivity(t, &samples)))
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

/// Builds the costed plan for a query over bound datasets on a cluster
/// partitioning the space by `grid`, one reducer per cell.
///
/// Deterministic: same inputs, same plan (see the module docs).
#[must_use]
pub fn plan(query: &Query, relations: &[&[Rect]], grid: &Grid) -> Plan {
    plan_inputs(query, Inputs::Memory(relations), grid)
}

/// [`plan`] over whatever a run binds. Over *stored* datasets the five
/// shuffle candidates are costed from storage-order samples (nothing is
/// materialized), and the shuffle-free [`Algorithm::MapSide`] is a sixth
/// candidate. Map-side moves zero records — the inputs are already
/// partitioned on the grid — so its cost is one round of overhead plus the
/// estimated matched pairs the local kernels touch.
pub(crate) fn plan_inputs(query: &Query, inputs: Inputs<'_>, grid: &Grid) -> Plan {
    let reducers = grid.num_cells();
    assert_eq!(inputs.len(), query.num_relations());
    let samples = &sample_relations(inputs);
    let sizes: &[f64] = &(0..inputs.len())
        .map(|pos| inputs.size(pos) as f64)
        .collect::<Vec<_>>();
    let d = query.max_range_distance();
    let reach = limited_reach(query, inputs.max_sides(), grid);
    let stats = relation_stats(sizes, samples, grid, &reach, d);

    // All-Replicate: one round, every rectangle shuffled q4-fold.
    let all_rep_comm: f64 = stats.iter().map(|s| s.n * s.q4).sum();
    // C-Rep: round 1 splits everything and joins per cell; only the
    // marked rectangles make the DFS round-trip and are replicated by
    // round 2, f1-fold (f2-fold under the C-Rep-L bound).
    let round1: f64 = stats.iter().map(|s| s.n * s.split).sum();
    let marked: f64 = stats.iter().map(|s| s.n * s.marked).sum();
    let crep_round2: f64 = stats.iter().map(|s| s.n * s.marked * s.q4_marked).sum();
    let crep_l_round2: f64 = stats
        .iter()
        .map(|s| s.n * s.marked * s.q4_bounded_marked)
        .sum();
    // Hypercube: one round, relation i shuffled Π_{j≠i} s_j-fold.
    let share_sizes: Vec<u64> = sizes.iter().map(|&n| n as u64).collect();
    let shares = derive_shares(&share_sizes, reducers);
    let hyper_comm: f64 = {
        let product: f64 = shares.iter().map(|&s| f64::from(s)).product();
        stats
            .iter()
            .zip(shares.iter())
            .map(|(s, &sh)| s.n * product / f64::from(sh))
            .sum()
    };
    let pairs = hypercube_pairs(query.triples(), sizes, &shares);
    // One sample-pair scan per triple, shared by the cascade's stages
    // and map-side's matched-pair term.
    let selectivities: Vec<f64> = query
        .triples()
        .iter()
        .map(|t| estimate_selectivity(t, samples))
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
        let p1 = plan(&q, &[&a, &b, &c], &grid);
        let p2 = plan(&q, &[&a, &b, &c], &grid);
        assert_eq!(p1.algorithm, p2.algorithm);
        assert_eq!(p1.to_json(), p2.to_json());
        // A plan is a function of its own inputs only: other datasets
        // planned in between — the same rectangles in other positions, a
        // relation of the same length — leave no trace in the next one.
        let d = relation(300, 4, 30.0);
        assert_ne!(plan(&q, &[&c, &b, &a], &grid).to_json(), p1.to_json());
        assert_ne!(plan(&q, &[&a, &b, &d], &grid).to_json(), p1.to_json());
        assert_eq!(plan(&q, &[&a, &b, &c], &grid).to_json(), p1.to_json());
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
        let p = plan(&q, &[&a, &b], &grid);
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
        // cascade and map-side terms; the plan is, byte for byte, what
        // estimating it per term produced.
        assert_eq!(
            p.to_json(),
            concat!(
                r#"{"algorithm":"map-side","reducers":64,"grid":[8,8],"shares":[4,4,4],"candidates":["#,
                r#"{"algorithm":"map-side","jobs":1,"comm_records":0.0,"dfs_records":0.0,"local_pairs":168.0,"cost":2003.4},"#,
                r#"{"algorithm":"cascade","jobs":2,"comm_records":985.0,"dfs_records":23.5,"local_pairs":0.0,"cost":5055.6},"#,
                r#"{"algorithm":"crep-l","jobs":2,"comm_records":1472.0,"dfs_records":162.0,"local_pairs":0.0,"cost":5958.0},"#,
                r#"{"algorithm":"crep","jobs":2,"comm_records":4770.0,"dfs_records":162.0,"local_pairs":0.0,"cost":9256.0},"#,
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
        let in_memory = plan(&q, &[&a, &b, &c], &grid);
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
        // first-mention order within a pair: same positions, same samples.
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
                cascade_row(&plan(&written, &inputs, &grid)),
                cascade_row(&plan(&executed, &inputs, &grid)),
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
        let planned = cascade_order(&q, &inputs);
        assert_eq!(planned.to_string(), cascade_order(&q, &inputs).to_string());
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
        // lot (big rectangles). The order must start with B-C — also when
        // a relation is smaller than the sample.
        let a = relation(80, 11, 120.0);
        let b = relation(80, 12, 120.0);
        let c = vec![Rect::new(0.5, 1.0, 0.2, 0.2); 80];
        let q = Query::parse("A ov B and B ov C").unwrap();
        let planned = cascade_order(&q, &[&a, &b, &c]);
        let first = planned.triples()[0];
        assert_eq!(
            (planned.name(first.left), planned.name(first.right)),
            ("B", "C"),
            "planned order: {planned}"
        );
    }

    #[test]
    fn plan_json_is_valid_shape() {
        let q = Query::parse("A ov B").unwrap();
        let a = relation(50, 6, 20.0);
        let b = relation(50, 7, 20.0);
        let grid = grid8();
        let json = plan(&q, &[&a, &b], &grid).to_json();
        assert!(json.starts_with("{\"algorithm\":\""));
        assert!(json.contains("\"candidates\":["));
        assert!(json.contains("\"shares\":["));
        assert!(json.ends_with("]}"));
    }
}
