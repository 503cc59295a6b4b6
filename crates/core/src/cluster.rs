use std::time::Instant;

use mwsj_geom::{Coord, Rect};
use mwsj_mapreduce::{Engine, EngineConfig};
use mwsj_partition::Grid;
use mwsj_query::Query;
use mwsj_store::StoredDataset;

use crate::algorithms::{self, AlgoCtx, Algorithm, Inputs};
use crate::optimizer::{self, Plan};
use crate::run_config::Run;
use crate::shards::{self, GatherSpec, ShardPartial};
use crate::{JoinError, JoinOutput, JoinRun, StoredRun};

/// Cluster configuration: the partitioned space, the reducer grid and the
/// engine.
///
/// A join job has one reducer (shuffle partition) per grid cell: the paper
/// runs 64 reducers as an 8×8 grid over the data space (§7.8.1), and
/// [`ClusterConfig::for_space`] mirrors that construction.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// x extent of the space (all rectangles must lie inside).
    pub x_range: (Coord, Coord),
    /// y extent of the space.
    pub y_range: (Coord, Coord),
    /// Grid columns (reducers per row).
    pub grid_cols: u32,
    /// Grid rows.
    pub grid_rows: u32,
    /// The engine's slots, fault plan and trace sink.
    pub engine: EngineConfig,
}

impl ClusterConfig {
    /// A square `side × side` reducer grid over the given space — `side²`
    /// reducers, as in the paper's 8×8 / 64-reducer setup.
    #[must_use]
    pub fn for_space(x_range: (Coord, Coord), y_range: (Coord, Coord), side: u32) -> Self {
        Self {
            x_range,
            y_range,
            grid_cols: side,
            grid_rows: side,
            engine: EngineConfig::default(),
        }
    }

    /// Overrides the engine configuration.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}

/// A simulated map-reduce cluster: the engine plus the grid partitioning
/// shared by every job of a join run.
pub struct Cluster {
    engine: Engine,
    grid: Grid,
}

impl Cluster {
    /// Creates a cluster.
    #[must_use]
    pub fn new(config: ClusterConfig) -> Self {
        let grid = Grid::new(
            config.x_range,
            config.y_range,
            config.grid_cols,
            config.grid_rows,
        );
        Self {
            engine: Engine::new(config.engine),
            grid,
        }
    }

    /// The grid partitioning (one reducer per cell).
    #[must_use]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The underlying engine (exposed for inspection; the join algorithms
    /// drive it internally).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Runs a multi-way spatial join with default options — the
    /// convenience form of [`Cluster::submit`].
    ///
    /// `relations[i]` is the dataset bound to query position `i`; a
    /// self-join binds the same slice to several positions. Output ids are
    /// indices into these slices. Each run collects its own jobs' metrics
    /// and DFS traffic, so [`JoinOutput::report`] covers exactly this run
    /// even when runs share the cluster concurrently.
    ///
    /// # Panics
    /// Panics on any [`JoinError`]: the number of datasets does not match
    /// the query's relation positions, a rectangle lies outside the
    /// configured space, or — under a fault plan — a job fails outright
    /// (see [`Cluster::submit`]).
    #[must_use]
    pub fn run(&self, query: &Query, relations: &[&[Rect]], algorithm: Algorithm) -> JoinOutput {
        self.submit(&JoinRun::new(query, relations).algorithm(algorithm))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the cost-based execution plan for a query over bound
    /// datasets — what [`Algorithm::Auto`] resolves to at submit time,
    /// exposed for `explain`-style inspection. Deterministic for fixed
    /// inputs (see [`crate::optimizer`]).
    ///
    /// # Panics
    /// Panics on the caller errors [`Cluster::submit`] reports: the
    /// number of datasets does not match the query's relation positions,
    /// or a rectangle lies outside the configured space.
    #[must_use]
    pub fn plan(&self, query: &Query, relations: &[&[Rect]]) -> Plan {
        let inputs = Inputs::Memory(relations);
        self.validate(query, inputs)
            .unwrap_or_else(|e| panic!("{e}"));
        self.plan_inputs(query, inputs)
    }

    /// Submits a fully-described join run over in-memory datasets. The
    /// [`JoinRun`] carries the query, the datasets, the algorithm and the
    /// run options (count-only mode, a per-run
    /// [`TraceSink`](mwsj_mapreduce::TraceSink)).
    ///
    /// Failed runs surface as a [`JoinError`] instead of panicking: a task
    /// that exhausts its attempt budget under a fault plan (or an
    /// intermediate dataset whose DFS read retries run out) fails the
    /// join, not the process, and so does a malformed run.
    ///
    /// # Errors
    /// [`JoinError::Job`] when a map-reduce job fails;
    /// [`JoinError::Dfs`] when an intermediate dataset stays unreadable;
    /// [`JoinError::InvalidInput`] on caller errors — dataset count not
    /// matching the query, rectangles outside the space, more than
    /// `u32::MAX` records across the datasets, or [`Algorithm::MapSide`]
    /// (which needs stored inputs).
    pub fn submit(&self, run: &JoinRun<'_>) -> Result<JoinOutput, JoinError> {
        self.execute(run, Inputs::Memory(run.inputs))
    }

    /// Builds the cost-based execution plan for a query over *stored*
    /// datasets — what [`Algorithm::Auto`] resolves to in
    /// [`Cluster::submit_stored`]. Adds the shuffle-free
    /// [`Algorithm::MapSide`] as a sixth candidate (zero communication;
    /// the inputs are already partitioned and indexed on disk) alongside
    /// the five shuffle algorithms.
    ///
    /// # Panics
    /// Panics if the number of stores does not match the query's relation
    /// positions, or a store was ingested with a different grid than this
    /// cluster's.
    #[must_use]
    pub fn plan_stored(&self, query: &Query, stores: &[&StoredDataset]) -> Plan {
        let inputs = Inputs::Stored(stores);
        self.validate(query, inputs)
            .unwrap_or_else(|e| panic!("{e}"));
        self.plan_inputs(query, inputs)
    }

    /// The 2-way cascade's condition order over *stored* datasets
    /// ([`optimizer::cascade_order`]), priced from the statistic each
    /// store folded at open: nothing is materialized.
    ///
    /// # Panics
    /// Panics like [`Cluster::plan_stored`].
    #[must_use]
    pub fn cascade_order_stored(&self, query: &Query, stores: &[&StoredDataset]) -> Query {
        let inputs = Inputs::Stored(stores);
        self.validate(query, inputs)
            .unwrap_or_else(|e| panic!("{e}"));
        optimizer::cascade_order_inputs(query, inputs, &self.grid)
    }

    /// Submits a join run over stored datasets.
    ///
    /// When the resolved algorithm is [`Algorithm::MapSide`], the join
    /// runs directly over the per-cell stored runs — no map, sort,
    /// shuffle or merge phase. Any other algorithm reads the stores' runs
    /// as its map input, record by record in storage order, and runs
    /// exactly as under [`Cluster::submit`]: tuples and every logical
    /// counter but `spill_runs` (map chunks end elsewhere) are
    /// byte-identical across both paths. The relations are never
    /// materialized in memory.
    ///
    /// The combined input fingerprint is derived from the stores' recorded
    /// fingerprints ([`crate::combine_fingerprints`]).
    ///
    /// # Errors
    /// Like [`Cluster::submit`]; the map-side path can only fail by
    /// cancellation or deadline. [`JoinError::InvalidInput`] when the
    /// store count does not match the query, or a store was ingested with
    /// a different grid than this cluster's.
    pub fn submit_stored(&self, run: &StoredRun<'_>) -> Result<JoinOutput, JoinError> {
        self.execute(run, Inputs::Stored(run.inputs))
    }

    /// Runs one seed-cell range of a map-side join over stored datasets:
    /// seeds only from start-relation rectangles homed in `seed_cells`,
    /// gathers from every cell, and returns the unsorted tuples as one
    /// row-major id buffer plus the per-cell tally, for [`shards::gather`]
    /// to merge.
    ///
    /// Unlike [`Cluster::submit_stored`] this never arms a deadline on
    /// the run's cancel token: a caller that splits one join into several
    /// ranges arms the shared token once for all of them. The algorithm
    /// is always [`Algorithm::MapSide`]; `run.algorithm` is ignored.
    ///
    /// # Errors
    /// By cancellation or deadline on the shared token;
    /// [`JoinError::InvalidInput`] as for [`Cluster::submit_stored`].
    pub fn submit_stored_partial(
        &self,
        run: &StoredRun<'_>,
        seed_cells: std::ops::Range<u32>,
    ) -> Result<ShardPartial, JoinError> {
        self.validate(run.query, Inputs::Stored(run.inputs))?;
        let ctx = self.ctx(run, shards::combined_fingerprint(run.inputs));
        algorithms::map_side::execute(&ctx, run.query, run.inputs, Some(seed_cells))
    }

    /// The one execution path behind [`Cluster::submit`] and
    /// [`Cluster::submit_stored`]: validate → arm the deadline → resolve
    /// `Auto` → build the context → dispatch. `inputs` is `run.inputs`,
    /// tagged with where the data lives.
    fn execute<B>(&self, run: &Run<'_, B>, inputs: Inputs<'_>) -> Result<JoinOutput, JoinError> {
        self.validate(run.query, inputs)?;
        if let Some(timeout) = run.deadline {
            run.cancel.deadline_in(timeout);
        }
        // Resolve `Auto` to the optimizer's concrete choice, so the
        // dispatch below only ever sees executable algorithms.
        let algorithm = match run.algorithm {
            Algorithm::Auto => self.plan_inputs(run.query, inputs).algorithm,
            pinned => pinned,
        };
        let fingerprint = match inputs {
            Inputs::Memory(_) => 0,
            Inputs::Stored(stores) => shards::combined_fingerprint(stores),
        };
        let ctx = self.ctx(run, fingerprint);

        // Map-side is the same join with the co-partitioning precondition
        // already met: a single node gathers the one full-range partial.
        if let (Algorithm::MapSide, Inputs::Stored(stores)) = (algorithm, inputs) {
            let started = Instant::now();
            let partial = algorithms::map_side::execute(&ctx, run.query, stores, None)?;
            let spec = GatherSpec {
                record_total: stores.iter().map(|s| s.record_count()).sum(),
                count_only: run.count_only,
                open_wall: run.open_wall,
                join_wall: started.elapsed(),
                input_fingerprint: fingerprint,
            };
            return Ok(shards::gather(vec![partial], &spec));
        }

        // Every other algorithm shuffles, reading either kind of input
        // record by record.
        match algorithm {
            Algorithm::TwoWayCascade => algorithms::cascade::run(&ctx, run.query, inputs),
            Algorithm::AllReplicate => algorithms::all_replicate::run(&ctx, run.query, inputs),
            Algorithm::ControlledReplicate => {
                algorithms::controlled_replicate::run(&ctx, run.query, inputs, false)
            }
            Algorithm::ControlledReplicateLimit => {
                algorithms::controlled_replicate::run(&ctx, run.query, inputs, true)
            }
            Algorithm::Hypercube => algorithms::hypercube::run(&ctx, run.query, inputs),
            Algorithm::MapSide => Err(JoinError::InvalidInput(
                "the map-side join needs stored datasets; use Cluster::submit_stored".to_string(),
            )),
            Algorithm::Auto => unreachable!("Auto resolved to a concrete algorithm above"),
        }
    }

    /// The caller-error checks shared by every entry point.
    fn validate(&self, query: &Query, inputs: Inputs<'_>) -> Result<(), JoinError> {
        let invalid = |msg: String| Err(JoinError::InvalidInput(msg));
        match inputs {
            Inputs::Memory(relations) => {
                if relations.len() != query.num_relations() {
                    return invalid("one dataset per query relation position".to_string());
                }
            }
            Inputs::Stored(stores) => {
                if stores.len() != query.num_relations() {
                    return invalid("one stored dataset per query relation position".to_string());
                }
                for (i, s) in stores.iter().enumerate() {
                    if s.grid() != &self.grid {
                        return invalid(format!(
                            "stored dataset {i} was ingested with a different grid than the cluster's"
                        ));
                    }
                }
            }
        }
        self.check_inputs(inputs, |i| format!("relation {i}"), "a run")
    }

    /// The checks of bound records every job sequence needs, before any
    /// job starts: every rectangle of a slice inside the cluster space
    /// (`name(i)` names position `i` in the message), and at most
    /// `u32::MAX` records in all, since a shuffle job's map input is one
    /// `u32` index per record (`reader` says what reads them).
    pub(crate) fn check_inputs(
        &self,
        inputs: Inputs<'_>,
        name: impl Fn(usize) -> String,
        reader: &str,
    ) -> Result<(), JoinError> {
        let invalid = |msg: String| Err(JoinError::InvalidInput(msg));
        if let Inputs::Memory(relations) = inputs {
            let extent = self.grid.extent();
            for (i, rel) in relations.iter().enumerate() {
                if !rel.iter().all(|r| extent.contains_rect(r)) {
                    return invalid(format!(
                        "{} contains rectangles outside the cluster space",
                        name(i)
                    ));
                }
            }
        }
        if inputs.total() > u32::MAX as usize {
            return invalid(format!(
                "{} records bound; {reader} reads at most {}",
                inputs.total(),
                u32::MAX
            ));
        }
        Ok(())
    }

    /// The optimizer's plan for validated inputs.
    fn plan_inputs(&self, query: &Query, inputs: Inputs<'_>) -> Plan {
        optimizer::plan_inputs(query, inputs, &self.grid)
    }

    /// The algorithm context of one run: the cluster's engine and grid
    /// plus the run's options.
    fn ctx<'a, B>(&'a self, run: &'a Run<'_, B>, input_fingerprint: u64) -> AlgoCtx<'a> {
        AlgoCtx {
            engine: &self.engine,
            grid: &self.grid,
            count_only: run.count_only,
            trace: &run.trace,
            cancel: run.cancel.clone(),
            metrics: parking_lot::Mutex::default(),
            priority: run.priority,
            share: run.share,
            input_fingerprint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builds_square_grid() {
        let c = Cluster::new(ClusterConfig::for_space((0.0, 80.0), (0.0, 80.0), 8));
        assert_eq!(c.grid().num_cells(), 64);
    }

    #[test]
    #[should_panic(expected = "outside the cluster space")]
    fn rejects_out_of_space_rectangles() {
        let cluster = Cluster::new(ClusterConfig::for_space((0.0, 10.0), (0.0, 10.0), 2));
        let q = Query::parse("a ov b").unwrap();
        let bad = vec![Rect::new(5.0, 5.0, 20.0, 2.0)];
        let ok = vec![Rect::new(1.0, 9.0, 1.0, 1.0)];
        let _ = cluster.run(&q, &[&bad, &ok], Algorithm::AllReplicate);
    }

    #[test]
    #[should_panic(expected = "one dataset per query relation position")]
    fn rejects_wrong_arity() {
        let cluster = Cluster::new(ClusterConfig::for_space((0.0, 10.0), (0.0, 10.0), 2));
        let q = Query::parse("a ov b").unwrap();
        let r = vec![Rect::new(1.0, 9.0, 1.0, 1.0)];
        let _ = cluster.run(&q, &[&r], Algorithm::AllReplicate);
    }

    #[test]
    #[should_panic(expected = "needs stored datasets")]
    fn map_side_requires_the_stored_entry_point() {
        let cluster = Cluster::new(ClusterConfig::for_space((0.0, 10.0), (0.0, 10.0), 2));
        let q = Query::parse("a ov b").unwrap();
        let r = vec![Rect::new(1.0, 9.0, 1.0, 1.0)];
        let _ = cluster.run(&q, &[&r, &r], Algorithm::MapSide);
    }

    // Every caller error comes back typed from the `submit*` entry points.

    fn small_cluster() -> (Cluster, Query, Vec<Rect>) {
        (
            Cluster::new(ClusterConfig::for_space((0.0, 10.0), (0.0, 10.0), 2)),
            Query::parse("a ov b").unwrap(),
            vec![Rect::new(1.0, 9.0, 1.0, 1.0)],
        )
    }

    /// A store of `rects` ingested on a 4×4 grid — not `small_cluster`'s.
    fn store_on_another_grid(rects: &[Rect]) -> Vec<u8> {
        let other = Grid::square((0.0, 10.0), (0.0, 10.0), 4);
        mwsj_store::StoreBuilder::new(&other).build(rects).unwrap()
    }

    #[track_caller]
    fn assert_invalid<T: std::fmt::Debug>(result: Result<T, JoinError>, want: &str) {
        match result {
            Err(JoinError::InvalidInput(msg)) => assert!(msg.contains(want), "{msg}"),
            other => panic!("expected InvalidInput({want}), got {other:?}"),
        }
    }

    #[test]
    fn submit_reports_wrong_arity_as_invalid_input() {
        let (cluster, q, r) = small_cluster();
        assert_invalid(
            cluster.submit(&JoinRun::new(&q, &[&r])),
            "one dataset per query relation position",
        );
    }

    #[test]
    fn submit_reports_out_of_space_rectangles_as_invalid_input() {
        let (cluster, q, ok) = small_cluster();
        let bad = vec![Rect::new(5.0, 5.0, 20.0, 2.0)];
        assert_invalid(
            cluster.submit(&JoinRun::new(&q, &[&ok, &bad])),
            "relation 1 contains rectangles outside the cluster space",
        );
    }

    #[test]
    fn submit_reports_map_side_over_memory_as_invalid_input() {
        let (cluster, q, r) = small_cluster();
        assert_invalid(
            cluster.submit(&JoinRun::new(&q, &[&r, &r]).algorithm(Algorithm::MapSide)),
            "needs stored datasets",
        );
    }

    #[test]
    fn stored_runs_report_grid_mismatch_as_invalid_input() {
        let (cluster, q, r) = small_cluster();
        let store = StoredDataset::from_bytes(&store_on_another_grid(&r)).unwrap();
        let stores = [&store, &store];
        let run = StoredRun::new(&q, &stores);
        assert_invalid(cluster.submit_stored(&run), "different grid");
        assert_invalid(cluster.submit_stored_partial(&run, 0..4), "different grid");
        assert_invalid(
            cluster.submit_stored(&StoredRun::new(&q, &stores[..1])),
            "one stored dataset per query relation position",
        );
    }

    #[test]
    #[should_panic(expected = "outside the cluster space")]
    fn plans_reject_rectangles_outside_the_space() {
        let (cluster, q, r) = small_cluster();
        let outside = [Rect::new(11.0, 9.0, 1.0, 1.0)];
        let _ = cluster.plan(&q, &[&r, &outside]);
    }

    #[test]
    #[should_panic(expected = "different grid")]
    fn stored_plans_reject_grid_mismatch() {
        let (cluster, q, r) = small_cluster();
        let store = StoredDataset::from_bytes(&store_on_another_grid(&r)).unwrap();
        let _ = cluster.plan_stored(&q, &[&store, &store]);
    }

    /// The one execution path arms the run's deadline whatever the inputs
    /// and the algorithm; a shard partial leaves the token to its caller.
    #[test]
    fn a_deadline_reaches_every_dispatch_arm_but_not_a_partial() {
        use mwsj_mapreduce::JobErrorKind;
        use std::time::Duration;

        let (cluster, q, r) = small_cluster();
        let bytes = mwsj_store::StoreBuilder::new(cluster.grid())
            .build(&r)
            .unwrap();
        let store = StoredDataset::from_bytes(&bytes).unwrap();
        let (relations, stores): ([&[Rect]; 2], _) = ([&r, &r], [&store, &store]);
        let timed_out = |result: Result<JoinOutput, JoinError>| match result {
            Err(JoinError::Job(e)) => assert!(
                matches!(
                    e.kind,
                    JobErrorKind::Cancelled {
                        deadline_exceeded: true
                    }
                ),
                "{e}"
            ),
            other => panic!("expected a deadline error, got {other:?}"),
        };

        let memory = JoinRun::new(&q, &relations).algorithm(Algorithm::AllReplicate);
        timed_out(cluster.submit(&memory.deadline(Duration::ZERO)));
        for algorithm in [Algorithm::MapSide, Algorithm::AllReplicate] {
            let stored = StoredRun::new(&q, &stores)
                .algorithm(algorithm)
                .deadline(Duration::ZERO);
            timed_out(cluster.submit_stored(&stored));
        }
        let partial = StoredRun::new(&q, &stores).deadline(Duration::ZERO);
        let cells = cluster.grid().num_cells();
        assert!(cluster.submit_stored_partial(&partial, 0..cells).is_ok());
    }

    /// Validation comes first: a malformed run arms no deadline on the
    /// caller's token.
    #[test]
    fn invalid_runs_leave_the_cancel_token_unarmed() {
        let (cluster, q, r) = small_cluster();
        let token = mwsj_mapreduce::CancelToken::new();
        let relations: [&[Rect]; 1] = [&r];
        let run = JoinRun::new(&q, &relations)
            .cancel(token.clone())
            .deadline(std::time::Duration::ZERO);
        assert_invalid(cluster.submit(&run), "one dataset per");
        assert!(!token.is_cancelled());
    }
}
