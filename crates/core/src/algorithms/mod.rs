//! The distributed join algorithms: the paper's four plus the
//! Shares-style hypercube join.
//!
//! All of them share the same contract: input relations bound to query
//! positions, output tuples of record ids (exactly the in-memory reference
//! result of [`crate::reference::in_memory_join`]), and a metrics report
//! exposing the communication behaviour the paper compares.

pub(crate) mod all_replicate;
pub(crate) mod cascade;
pub(crate) mod controlled_replicate;
pub(crate) mod hypercube;
pub(crate) mod map_side;

use mwsj_geom::Rect;
use mwsj_local::{multiway, GroupIndex, JoinKernel, LocalRect, TupleFilter};
use mwsj_mapreduce::{
    CancelToken, DfsError, Engine, JobError, JobSpec, MetricsReport, RecordSize, TraceSink, Unset,
};
use mwsj_partition::{CellId, Grid};
use mwsj_query::{Query, RelationId};
use mwsj_store::{Sides, StoredDataset};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::record::{group_by_relation, InputRef};
use crate::{JoinError, JoinOutput, ReplicationStats, TaggedRect};

/// Everything an algorithm needs from the cluster plus the per-run
/// options, threaded as one context so the four `run` entry points share a
/// signature and every job they submit can attach the run's trace sink,
/// cancellation token and scheduling parameters.
pub(crate) struct AlgoCtx<'a> {
    /// The map-reduce engine executing the jobs.
    pub engine: &'a Engine,
    /// The grid partitioning of the space: one reducer (shuffle
    /// partition) per cell.
    pub grid: &'a Grid,
    /// Count output tuples instead of materializing them.
    pub count_only: bool,
    /// Per-run trace sink (disabled unless the caller attached one).
    pub trace: &'a TraceSink,
    /// Cooperative cancellation token threaded into every job of the run.
    pub cancel: CancelToken,
    /// This run's metrics: [`AlgoCtx::run`] appends each job's,
    /// [`AlgoCtx::materialize`] charges the DFS counters; nothing else
    /// writes it, so concurrent runs on a shared cluster each read exactly
    /// their own.
    pub metrics: Mutex<MetricsReport>,
    /// Slot-scheduler priority of this run's jobs.
    pub priority: i32,
    /// Slot-scheduler fair-share weight of this run's jobs.
    pub share: u32,
    /// Combined fingerprint of the stores bound to the query positions
    /// (0 for in-memory slices, which carry none).
    pub input_fingerprint: u64,
}

impl AlgoCtx<'_> {
    /// A [`JobSpec`] pre-wired with this run's reducer count, trace sink,
    /// cancellation token, scheduling parameters and input fingerprint —
    /// every job an algorithm submits starts from this.
    pub fn spec(&self, name: impl Into<String>) -> JobSpec<Unset, Unset, Unset> {
        JobSpec::new(name)
            .reducers(self.grid.num_cells() as usize)
            .trace(self.trace.clone())
            .cancel(self.cancel.clone())
            .priority(self.priority)
            .share(self.share)
            .input_fingerprint(self.input_fingerprint)
    }

    /// Runs one job of this run on the engine, appending its metrics to
    /// the run's report.
    pub fn run<I, K, V, O, MF, PF, RF>(
        &self,
        spec: JobSpec<MF, PF, RF>,
        input: &[I],
    ) -> Result<Vec<O>, JobError>
    where
        I: Sync,
        K: Ord + Send + Sync + RecordSize,
        V: Send + Sync + RecordSize,
        O: Send,
        MF: Fn(&I, &mut dyn FnMut(K, V)) + Sync,
        PF: Fn(&K, usize) -> usize + Sync,
        RF: Fn(&K, &[V], &mut dyn FnMut(O)) + Sync,
    {
        let (output, metrics) = self.engine.run(spec, input)?;
        self.metrics.lock().jobs.push(metrics);
        Ok(output)
    }

    /// Materializes a stream between two jobs of this run on the DFS,
    /// charging its traffic to the run's report.
    pub fn materialize<T: RecordSize>(
        &self,
        label: &str,
        data: Vec<T>,
    ) -> Result<Vec<T>, DfsError> {
        self.engine
            .dfs
            .materialize(label, data, &mut self.metrics.lock())
    }

    /// This run's metrics report so far.
    pub fn report(&self) -> MetricsReport {
        self.metrics.lock().clone()
    }
}

/// Which distributed algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Algorithm {
    /// Naive baseline (§6.1): evaluate the query as a cascade of 2-way
    /// joins, one map-reduce job per join, materializing every intermediate
    /// result on the DFS.
    TwoWayCascade,
    /// Naive baseline (§6.1): replicate every rectangle to all cells in its
    /// 4th quadrant and join in a single round.
    AllReplicate,
    /// The paper's *Controlled-Replicate* (§7): round 1 marks the
    /// rectangles satisfying conditions C1-C4 and joins what each cell
    /// already holds; round 2 replicates only the marked rectangles and
    /// joins the tuples that span cells.
    ControlledReplicate,
    /// *C-Rep-L* (§7.9): like C-Rep, but marked rectangles are replicated
    /// only to 4th-quadrant cells within a per-relation distance bound
    /// derived from the join graph.
    ControlledReplicateLimit,
    /// Shares-style hypercube join (Afrati/Ullman): the reducers form a
    /// hypercube with one dimension per relation *position*; each tuple is
    /// hashed on its own dimension and replicated along all unconstrained
    /// dimensions, so every candidate tuple meets at exactly one reducer.
    /// One round, predicate-agnostic, replication independent of the range
    /// distance `d`.
    Hypercube,
    /// Shuffle-free join over *stored* datasets: when every relation is
    /// pre-partitioned on the cluster grid (by `mwsj ingest`, or by the
    /// server and the CLI, which bind every dataset as a store), the join runs
    /// the local kernel directly over the per-cell stored runs — no
    /// map, sort, shuffle or merge phase at all. Only executable through
    /// [`Cluster::submit_stored`](crate::Cluster::submit_stored); it is
    /// not in [`Algorithm::ALL`] because it needs stored inputs.
    MapSide,
    /// Let the cost-based optimizer ([`crate::optimizer`]) pick one of the
    /// concrete algorithms from each relation's records per home cell and
    /// side sums, priced in closed form, and the query's join graph.
    Auto,
}

impl Algorithm {
    /// All *concrete* algorithms, in the order the paper's tables list
    /// them (plus the hypercube join). `Auto` is a planner directive, not
    /// an executable algorithm, so it is not listed here.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::TwoWayCascade,
        Algorithm::AllReplicate,
        Algorithm::ControlledReplicate,
        Algorithm::ControlledReplicateLimit,
        Algorithm::Hypercube,
    ];

    /// Short display name used by the bench tables.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::TwoWayCascade => "2-way Cascade",
            Algorithm::AllReplicate => "All-Rep",
            Algorithm::ControlledReplicate => "C-Rep",
            Algorithm::ControlledReplicateLimit => "C-Rep-L",
            Algorithm::Hypercube => "Hypercube",
            Algorithm::MapSide => "Map-Side",
            Algorithm::Auto => "Auto",
        }
    }

    /// The wire name: the spelling the CLI, the server protocol and the
    /// result-cache keys use. Inverse of the [`std::str::FromStr`] impl.
    #[must_use]
    pub fn wire_name(&self) -> &'static str {
        match self {
            Algorithm::TwoWayCascade => "cascade",
            Algorithm::AllReplicate => "allrep",
            Algorithm::ControlledReplicate => "crep",
            Algorithm::ControlledReplicateLimit => "crep-l",
            Algorithm::Hypercube => "hypercube",
            Algorithm::MapSide => "map-side",
            Algorithm::Auto => "auto",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire_name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    /// Parses an algorithm by its wire name (plus the historical aliases
    /// the CLI accepted).
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        Ok(match name {
            "cascade" => Algorithm::TwoWayCascade,
            "allrep" | "all-rep" => Algorithm::AllReplicate,
            "crep" | "c-rep" => Algorithm::ControlledReplicate,
            "crep-l" | "c-rep-l" | "crepl" => Algorithm::ControlledReplicateLimit,
            "hypercube" | "shares" => Algorithm::Hypercube,
            "map-side" | "mapside" => Algorithm::MapSide,
            "auto" => Algorithm::Auto,
            other => return Err(format!("unknown algorithm `{other}`")),
        })
    }
}

/// What a run binds to the query's relation positions: an in-memory
/// slice, whose record `i` is `relations[pos][i]` with id `i`, or a store,
/// whose record `i` is its `i`-th in storage order (cell by cell, each run
/// by `min_x`) with the id it keeps.
///
/// A shuffle job maps over record *indices* into the positional
/// concatenation — position 0's records, then position 1's, … — and reads
/// each record in place with [`Inputs::get`], as a Hadoop record reader
/// reads its split: the map input costs 4 bytes a record, and no tagged
/// copy of the relations is made. Every shuffle algorithm routes a record
/// by its rectangle and names it by its id, so both kinds of binding
/// shuffle the same pairs to the same reducers; only where map chunks end
/// can differ.
#[derive(Clone, Copy)]
pub(crate) enum Inputs<'a> {
    /// In-memory relations.
    Memory(&'a [&'a [Rect]]),
    /// Opened stored datasets.
    Stored(&'a [&'a StoredDataset]),
}

impl Inputs<'_> {
    /// Relation positions bound.
    pub fn len(self) -> usize {
        match self {
            Inputs::Memory(relations) => relations.len(),
            Inputs::Stored(stores) => stores.len(),
        }
    }

    /// Records bound to position `pos`.
    pub fn size(self, pos: usize) -> usize {
        match self {
            Inputs::Memory(relations) => relations[pos].len(),
            Inputs::Stored(stores) => stores[pos].record_count() as usize,
        }
    }

    /// Records bound across all positions.
    pub fn total(self) -> usize {
        (0..self.len()).map(|pos| self.size(pos)).sum()
    }

    /// The `i`-th record of position `pos`, tagged with the position.
    pub fn record(self, pos: usize, i: usize) -> TaggedRect {
        let (rect, id) = match self {
            Inputs::Memory(relations) => (relations[pos][i], i as u32),
            Inputs::Stored(stores) => stores[pos].nth(i),
        };
        TaggedRect::new(RelationId(pos as u16), id, rect)
    }

    /// The record at index `i` of the positional concatenation.
    pub fn get(self, i: u32) -> TaggedRect {
        let mut i = i as usize;
        for pos in 0..self.len() {
            let size = self.size(pos);
            if i < size {
                return self.record(pos, i);
            }
            i -= size;
        }
        panic!("record index past the bound inputs")
    }

    /// A shuffle job's map input: one index per bound record, in
    /// concatenation order. `Cluster::validate` bounds the total by
    /// `u32::MAX`.
    pub fn indices(self) -> Vec<u32> {
        (0..self.total() as u32).collect()
    }

    /// The side statistic of position `pos`: a store's, folded at open,
    /// or one pass over the slice.
    pub fn sides(self, pos: usize) -> Sides {
        match self {
            Inputs::Memory(relations) => Sides::of(relations[pos]),
            Inputs::Stored(stores) => stores[pos].sides(),
        }
    }

    /// The planner's statistic of position `pos`: its records per home
    /// cell of `grid`, row-major, and its side statistic. A store reads
    /// both off what it folded at open — its cell table and its
    /// [`Sides`] — in O(cells); a slice folds them in one pass.
    pub fn statistic(self, pos: usize, grid: &Grid) -> (Vec<u32>, Sides) {
        match self {
            Inputs::Memory(relations) => {
                let mut homes = vec![0; grid.num_cells() as usize];
                let mut sides = Sides::default();
                for r in relations[pos] {
                    homes[grid.cell_of(r).0 as usize] += 1;
                    sides.add(r);
                }
                (homes, sides)
            }
            Inputs::Stored(stores) => {
                let store = stores[pos];
                let homes = grid.cells().map(|c| store.cell(c).0.len() as u32);
                (homes.collect(), store.sides())
            }
        }
    }

    /// The largest length ([`Rect::l`]) and breadth ([`Rect::b`]) of any
    /// bound record, `(0.0, 0.0)` when there is none: the dataset statistic
    /// the C-Rep-L bounds assume known (§7.9), per axis, read off each
    /// position's [`Inputs::sides`].
    pub fn max_sides(self) -> (f64, f64) {
        (0..self.len())
            .map(|pos| self.sides(pos))
            .fold((0.0, 0.0), |(l, b), s| (s.max_l.max(l), s.max_b.max(b)))
    }
}

/// The reducer body every join job shares: emits what the compiled local
/// join over one (indexed) reducer group finds and `filter` keeps — the
/// tuple's ids, or in count-only mode one [`count_record`] for the group,
/// iff the count is positive.
///
/// A count-only reducer over an acyclic join graph of symmetric predicates
/// counts on the join tree ([`JoinKernel::count_on`]): each member is
/// classified once against the cell's bounds, and no tuple is enumerated.
/// Everything else is faithful to the paper's reducers: enumerate the local
/// join of everything received, then filter. That test runs once per
/// *candidate* tuple at every receiving reducer and is allocation-free
/// (the extrema stream through `multiway_tuple_cell_of`; membership is
/// [`Grid::splits_onto`], the predicate that routed round 1).
pub(crate) fn join_group(
    ctx: &AlgoCtx<'_>,
    kernel: &JoinKernel,
    filter: TupleFilter,
    key: u32,
    group: &GroupIndex<'_>,
    out: &mut dyn FnMut(Vec<u32>),
) {
    let grid = ctx.grid;
    let cell = CellId(key);
    if ctx.count_only {
        if let Some(found) = kernel.count_on(group, filter, grid, cell) {
            if found > 0 {
                out(count_record(found));
            }
            return;
        }
    }
    let mut found = 0u64;
    kernel.execute_on(group, |tuple| {
        let designated = || {
            mwsj_local::dedup::multiway_tuple_cell_of(grid, tuple.iter().map(|(r, _)| r)) == cell
        };
        let keep = match filter {
            TupleFilter::All => true,
            TupleFilter::Designated => designated(),
            TupleFilter::DesignatedCrossCell => {
                designated() && tuple.iter().any(|(r, _)| !grid.splits_onto(r, cell))
            }
        };
        if keep {
            found += 1;
            if !ctx.count_only {
                out(tuple_ids(tuple));
            }
        }
    });
    if ctx.count_only && found > 0 {
        out(count_record(found));
    }
}

/// What distinguishes one replicate-and-join algorithm from another,
/// besides its routing function: the job name, the algorithm it reports,
/// which tuples its reducers emit, and what an earlier round brought.
pub(crate) struct JoinJob {
    /// Engine job name (also the trace span name).
    pub name: &'static str,
    /// The algorithm the output reports.
    pub algorithm: Algorithm,
    /// Which locally-found tuples a reducer emits.
    pub filter: TupleFilter,
    /// Output records (tuples or [`count_record`]s) an earlier round of
    /// the same run already committed; empty for one-round algorithms.
    pub earlier: Vec<Vec<u32>>,
}

/// The one replicate-and-join job behind All-Replicate, round 2 of
/// C-Rep / C-Rep-L and the hypercube join (§6–§7): the map applies the
/// algorithm's replication function `route` to every input record, each
/// key (a grid or hypercube cell) names its reducer, and every reducer
/// group runs the compiled local join over whatever arrived. The
/// algorithms differ only in `route` — their mapping schema — and in the
/// [`JoinJob`] description.
///
/// The map walks the indices `0..records` and `read` yields the record
/// behind each: the one-round algorithms read the bound relations in
/// place with [`Inputs::get`]; C-Rep's round 2 reads the marked stream its
/// round 1 materialized. `route` only names the keys; each pair carries
/// the record's index, which the reducer reads again. Every input record
/// counts as *replicated* in the stats: no caller routes a record by
/// projection.
pub(crate) fn replicate_join(
    ctx: &AlgoCtx<'_>,
    query: &Query,
    job: JoinJob,
    records: usize,
    read: impl Fn(u32) -> TaggedRect + Sync,
    route: impl Fn(&TaggedRect, &mut dyn FnMut(u32)) + Sync,
) -> Result<JoinOutput, JoinError> {
    let n = query.num_relations();
    // Compile the local-join kernel once; the reduce closure shares it
    // across every reducer group (per-thread scratch inside).
    let kernel = JoinKernel::new(query);

    let mut raw: Vec<Vec<u32>> = ctx.run(
        ctx.spec(job.name)
            .map(|&i: &u32, emit| route(&read(i), &mut |key| emit(key, InputRef::fixed(i))))
            .partition(|&k: &u32, p| k as usize % p)
            .reduce(|&key: &u32, values: &[InputRef], out| {
                let rels = group_by_relation(n, values.iter().map(|v| read(v.index)));
                join_group(ctx, &kernel, job.filter, key, &GroupIndex::new(&rels), out);
            }),
        &(0..records as u32).collect::<Vec<u32>>(),
    )?;
    raw.extend(job.earlier);

    let report = ctx.report();
    let join = report.jobs.last().expect("the join job just ran");
    let stats = ReplicationStats {
        rectangles_replicated: records as u64,
        rectangles_after_replication: join.map_output_records,
    };
    let (tuples, tuple_count) = finish_tuples(raw, ctx.count_only);
    Ok(JoinOutput {
        algorithm: job.algorithm,
        tuples,
        tuple_count,
        stats,
        report,
    })
}

/// The ids of a tuple's members, in position order. The returned `Vec` is
/// the output record itself (only built for tuples that passed the
/// reducer's filter), so this is the one allocation the materialized
/// path keeps.
pub(crate) fn tuple_ids(tuple: &[LocalRect]) -> Vec<u32> {
    tuple.iter().map(|&(_, id)| id).collect()
}

/// Encodes a per-reducer output-tuple count as a job output record.
///
/// In count-only mode the reducers do not materialize tuples, but the
/// count must still travel through the engine's task-commit protocol:
/// anything tallied in shared state outside of it (e.g. an `AtomicU64`
/// bumped from the reduce closure) is double-counted by retried or
/// speculative task attempts whose output the engine discards. A count
/// record is attempt-local like any other output, so it commits exactly
/// once per task no matter how many attempts ran.
pub(crate) fn count_record(count: u64) -> Vec<u32> {
    vec![(count >> 32) as u32, count as u32]
}

/// Sums the [`count_record`]s committed by a count-only job.
pub(crate) fn sum_count_records(records: &[Vec<u32>]) -> u64 {
    records
        .iter()
        .map(|r| (u64::from(r[0]) << 32) | u64::from(r[1]))
        .sum()
}

/// Turns raw job output into the `(tuples, tuple_count)` pair of a
/// [`crate::JoinOutput`]: decodes [`count_record`]s in count-only mode,
/// normalizes real tuples otherwise. Both derive the count from
/// *committed* output, never from side effects of reduce attempts.
pub(crate) fn finish_tuples(raw: Vec<Vec<u32>>, count_only: bool) -> (Vec<Vec<u32>>, u64) {
    if count_only {
        (Vec::new(), sum_count_records(&raw))
    } else {
        let tuples = multiway::normalized(raw);
        let count = tuples.len() as u64;
        (tuples, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every record [`Inputs::get`] reads, in map-input order.
    fn walk(inputs: Inputs<'_>) -> Vec<TaggedRect> {
        inputs
            .indices()
            .into_iter()
            .map(|i| inputs.get(i))
            .collect()
    }

    #[test]
    fn get_reads_positions_in_order_and_stores_in_storage_order() {
        let a = vec![Rect::new(0.0, 1.0, 1.0, 1.0)];
        // One cell, so a store keeps `b` by `min_x`: record 1 first.
        let b = vec![Rect::new(3.0, 1.0, 1.0, 1.0), Rect::new(2.0, 1.0, 1.0, 1.0)];
        let (r0, r1) = (RelationId(0), RelationId(1));
        assert_eq!(
            walk(Inputs::Memory(&[&a, &b])),
            [
                TaggedRect::new(r0, 0, a[0]),
                TaggedRect::new(r1, 0, b[0]),
                TaggedRect::new(r1, 1, b[1]),
            ]
        );

        let grid = Grid::square((0.0, 10.0), (0.0, 10.0), 2);
        let builder = mwsj_store::StoreBuilder::new(&grid);
        let stores: Vec<StoredDataset> = [&a, &b]
            .map(|rel| StoredDataset::from_bytes(&builder.build(rel).unwrap()).unwrap())
            .into();
        let stores: Vec<&StoredDataset> = stores.iter().collect();
        assert_eq!(
            walk(Inputs::Stored(&stores)),
            [
                TaggedRect::new(r0, 0, a[0]),
                TaggedRect::new(r1, 1, b[1]),
                TaggedRect::new(r1, 0, b[0]),
            ]
        );
    }

    #[test]
    fn statistic_over_a_store_equals_it_over_the_slice() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let grid = Grid::new((0.0, 10.0), (0.0, 12.0), 3, 4);
        let random: Vec<Rect> = (0..500)
            .map(|_| {
                let (x, y) = (rng.random_range(0.0..9.0), rng.random_range(1.5..12.0));
                let (l, b) = (rng.random_range(0.0..1.0), rng.random_range(0.0..1.5));
                Rect::new(x, y, l, b)
            })
            .collect();
        // The longest and the broadest bodies are records of different
        // relations; the third relation is empty.
        let a = vec![
            Rect::new(0.0, 10.0, 3.0, 4.0),
            Rect::new(5.0, 5.0, 1.0, 1.0),
        ];
        let b = vec![Rect::new(2.0, 10.0, 6.0, 2.0)];
        let none: Vec<Rect> = Vec::new();
        let slices: [&[Rect]; 4] = [&random, &a, &b, &none];
        let builder = mwsj_store::StoreBuilder::new(&grid);
        let stores: Vec<StoredDataset> = slices
            .map(|rel| StoredDataset::from_bytes(&builder.build(rel).unwrap()).unwrap())
            .into();
        let stores: Vec<&StoredDataset> = stores.iter().collect();
        let (memory, stored) = (Inputs::Memory(&slices), Inputs::Stored(&stores));
        for (pos, slice) in slices.iter().enumerate() {
            let ((homes, m), (stored_homes, s)) =
                (memory.statistic(pos, &grid), stored.statistic(pos, &grid));
            assert_eq!(homes, stored_homes, "position {pos}");
            assert_eq!(homes.iter().sum::<u32>() as usize, slice.len());
            assert_eq!((m.max_l, m.max_b), (s.max_l, s.max_b), "position {pos}");
            // The two folds add in different orders.
            for (x, y) in [(m.sum_l, s.sum_l), (m.sum_b, s.sum_b), (m.sum_lb, s.sum_lb)] {
                assert!(
                    (x - y).abs() <= 1e-12 * x.abs(),
                    "position {pos}: {x} vs {y}"
                );
            }
            assert_eq!(memory.sides(pos), m, "one fold of the slice");
        }
        assert_eq!(memory.max_sides(), stored.max_sides());
        assert_eq!(Inputs::Memory(&slices[1..]).max_sides(), (6.0, 4.0));
        assert_eq!(Inputs::Stored(&stores[1..]).max_sides(), (6.0, 4.0));
        assert_eq!(Inputs::Memory(&[&none]).max_sides(), (0.0, 0.0));
        assert_eq!(Inputs::Stored(&stores[3..]).max_sides(), (0.0, 0.0));
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::ControlledReplicate.name(), "C-Rep");
        assert_eq!(Algorithm::ALL.len(), 5);
        assert!(!Algorithm::ALL.contains(&Algorithm::Auto));
        // Map-side needs stored inputs, so it is not a shuffle candidate.
        assert!(!Algorithm::ALL.contains(&Algorithm::MapSide));
    }

    #[test]
    fn wire_names_round_trip() {
        for alg in Algorithm::ALL
            .into_iter()
            .chain([Algorithm::MapSide, Algorithm::Auto])
        {
            assert_eq!(alg.to_string().parse::<Algorithm>(), Ok(alg));
        }
        assert_eq!("shares".parse::<Algorithm>(), Ok(Algorithm::Hypercube));
        assert_eq!(
            "c-rep-l".parse::<Algorithm>(),
            Ok(Algorithm::ControlledReplicateLimit)
        );
        assert!("mystery".parse::<Algorithm>().is_err());
    }
}
