use std::time::Duration;

use mwsj_geom::Rect;
use mwsj_mapreduce::{CancelToken, Fnv64, TraceSink};
use mwsj_query::Query;
use mwsj_store::StoredDataset;

use crate::Algorithm;

/// A fully-described join run: the query, one binding per relation
/// position, and the run options. Generic over the binding type `B` — use
/// it through its two aliases, [`JoinRun`] (in-memory `&[Rect]` slices,
/// for [`Cluster::submit`](crate::Cluster::submit)) and [`StoredRun`]
/// (opened `&StoredDataset`s, for
/// [`Cluster::submit_stored`](crate::Cluster::submit_stored)). The options
/// and their setters are the same for both.
#[derive(Debug, Clone)]
pub struct Run<'a, B> {
    /// The multi-way spatial join query.
    pub query: &'a Query,
    /// What is bound to the query's relation positions: `inputs[i]` binds
    /// position `i`; a self-join binds the same input several times.
    pub inputs: &'a [B],
    /// Which distributed algorithm evaluates the query.
    /// [`Algorithm::Auto`] (the default) defers the choice to the
    /// cost-based optimizer at submit time.
    pub algorithm: Algorithm,
    /// Count output tuples instead of materializing them. The heavier
    /// experiment rows of the paper produce outputs far larger than memory;
    /// the evaluation tables only report times and replication counts, so
    /// the bench harness runs in this mode.
    pub count_only: bool,
    /// Trace sink recording job/phase/attempt spans for this run's jobs.
    /// Disabled by default; an enabled sink here takes precedence over any
    /// engine-wide sink configured on the cluster.
    pub trace: TraceSink,
    /// Cooperative cancellation token for the whole run: cancelling it
    /// aborts the current job at the next task boundary and fails the run
    /// with a `Cancelled` job error (never retried).
    pub cancel: CancelToken,
    /// Wall-clock budget for the run, enforced through [`Run::cancel`]
    /// from submit time.
    pub deadline: Option<Duration>,
    /// Slot-scheduler priority: among queued runs, strictly higher
    /// priority acquires worker slots first.
    pub priority: i32,
    /// Fair-share weight: equal-priority runs receive slots proportionally
    /// to their share (clamped to at least 1 by the engine).
    pub share: u32,
    /// See [`StoredRun::open_wall`]; in-memory runs open nothing.
    pub(crate) open_wall: Duration,
}

/// A fully-described join run for [`Cluster::submit`](crate::Cluster::submit):
/// the query, the datasets bound to its relation positions, and the run
/// options (algorithm, count-only mode, a per-run trace sink).
///
/// Built with [`JoinRun::new`] plus chained options. The algorithm is an
/// option like any other, defaulting to [`Algorithm::Auto`] (the
/// cost-based optimizer picks); pin one with [`JoinRun::algorithm`]:
///
/// ```
/// use mwsj_core::{Algorithm, Cluster, ClusterConfig, JoinRun};
/// use mwsj_core::mapreduce::TraceSink;
/// use mwsj_geom::Rect;
/// use mwsj_query::Query;
///
/// let r1 = vec![Rect::new(10.0, 90.0, 5.0, 5.0)];
/// let r2 = vec![Rect::new(12.0, 88.0, 5.0, 5.0)];
/// let query = Query::parse("R1 overlaps R2").unwrap();
/// let cluster = Cluster::new(ClusterConfig::for_space((0.0, 100.0), (0.0, 100.0), 4));
///
/// let trace = TraceSink::recording();
/// let output = cluster
///     .submit(
///         &JoinRun::new(&query, &[&r1, &r2])
///             .algorithm(Algorithm::ControlledReplicate)
///             .counting()
///             .trace(trace.clone()),
///     )
///     .expect("join failed");
/// assert_eq!(output.tuple_count, 1);
/// assert_eq!(output.algorithm, Algorithm::ControlledReplicate);
/// assert!(trace.to_jsonl().contains("c-rep-round2-join"));
/// ```
pub type JoinRun<'a> = Run<'a, &'a [Rect]>;

/// A join run over *stored* datasets, for
/// [`Cluster::submit_stored`](crate::Cluster::submit_stored): the query,
/// one opened [`StoredDataset`] per relation position, and the same run
/// options as [`JoinRun`].
///
/// The default algorithm is [`Algorithm::Auto`]; on co-partitioned stores
/// the optimizer's stored plan usually resolves it to
/// [`Algorithm::MapSide`], the shuffle-free join over the per-cell stored
/// runs. Pinning a shuffle algorithm instead feeds the stores' runs to its
/// map phase — the tuples are the same either way (trace, priority and
/// share only matter to the engine jobs of a shuffle). The combined input
/// fingerprint is derived from the stores' recorded fingerprints.
pub type StoredRun<'a> = Run<'a, &'a StoredDataset>;

impl<'a, B> Run<'a, B> {
    /// Describes a run with default options: optimizer-chosen algorithm
    /// ([`Algorithm::Auto`]), materialized tuples, no trace.
    #[must_use]
    pub fn new(query: &'a Query, inputs: &'a [B]) -> Self {
        Self {
            query,
            inputs,
            algorithm: Algorithm::Auto,
            count_only: false,
            trace: TraceSink::disabled(),
            cancel: CancelToken::new(),
            deadline: None,
            priority: 0,
            share: 1,
            open_wall: Duration::ZERO,
        }
    }

    /// Pins the distributed algorithm instead of letting the optimizer
    /// choose.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets count-only mode explicitly.
    #[must_use]
    pub fn count_only(mut self, count_only: bool) -> Self {
        self.count_only = count_only;
        self
    }

    /// Counts output tuples without materializing them.
    #[must_use]
    pub fn counting(self) -> Self {
        self.count_only(true)
    }

    /// Attaches a trace sink to every job of this run.
    #[must_use]
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// Attaches a cancellation token; cancelling it from another thread
    /// aborts the run at the next task boundary.
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Bounds the run's wall-clock time; past the deadline the run fails
    /// with a `Cancelled { deadline_exceeded: true }` job error.
    #[must_use]
    pub fn deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(timeout);
        self
    }

    /// Sets the slot-scheduler priority of this run's jobs.
    #[must_use]
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the fair-share weight of this run's jobs.
    #[must_use]
    pub fn share(mut self, share: u32) -> Self {
        self.share = share;
        self
    }
}

impl StoredRun<'_> {
    /// Records the wall time the caller spent opening (reading +
    /// validating) the stores for this run, reported as the map-side
    /// job's `index_open_wall` so end-to-end comparisons against the
    /// shuffle algorithms stay honest. Zero (the default) for
    /// long-mounted stores whose open cost is amortized across many
    /// queries.
    #[must_use]
    pub fn open_wall(mut self, open_wall: Duration) -> Self {
        self.open_wall = open_wall;
        self
    }
}

/// Combines per-position dataset fingerprints into the one input
/// fingerprint of a run: the binding count, then each fingerprint in
/// position order. The single recipe behind stored runs, shard gathers
/// and result-cache keys.
#[must_use]
pub fn combine_fingerprints(fingerprints: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(fingerprints.len() as u64);
    for fp in fingerprints {
        h.write_u64(*fp);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_aliases_share_defaults_and_setters() {
        fn check<B: std::fmt::Debug>(run: Run<'_, B>) {
            assert_eq!(run.algorithm, Algorithm::Auto);
            assert!(!run.count_only && run.deadline.is_none());
            assert_eq!((run.priority, run.share), (0, 1));
            assert_eq!(run.open_wall, Duration::ZERO);
            let run = run
                .algorithm(Algorithm::Hypercube)
                .counting()
                .deadline(Duration::from_secs(3))
                .priority(-2)
                .share(7);
            assert_eq!(run.algorithm, Algorithm::Hypercube);
            assert!(run.count_only);
            assert_eq!(run.deadline, Some(Duration::from_secs(3)));
            assert_eq!((run.priority, run.share), (-2, 7));
        }
        let query = Query::parse("a ov b").unwrap();
        let memory: [&[Rect]; 0] = [];
        let stored: [&StoredDataset; 0] = [];
        check(JoinRun::new(&query, &memory));
        check(StoredRun::new(&query, &stored));
        assert_eq!(
            StoredRun::new(&query, &stored)
                .open_wall(Duration::from_millis(4))
                .open_wall,
            Duration::from_millis(4)
        );
    }

    /// The recipe is part of every result-cache key: count first, then
    /// each fingerprint in position order.
    #[test]
    fn combined_fingerprint_recipe_is_pinned() {
        let mut h = Fnv64::new();
        h.write_u64(2);
        h.write_u64(0xAA);
        h.write_u64(0xBB);
        assert_eq!(combine_fingerprints(&[0xAA, 0xBB]), h.finish());
        assert_ne!(
            combine_fingerprints(&[0xAA, 0xBB]),
            combine_fingerprints(&[0xBB, 0xAA])
        );
        assert_ne!(combine_fingerprints(&[]), combine_fingerprints(&[0]));
    }
}
