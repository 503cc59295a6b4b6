//! Multi-way spatial joins on a (simulated) map-reduce cluster — a
//! from-scratch reproduction of *Processing Multi-Way Spatial Joins on
//! Map-Reduce* (Gupta et al., EDBT 2013).
//!
//! The crate distributes a multi-way spatial join query (conjunctions of
//! `Overlap` and `Range(d)` predicates over rectangle relations) across a
//! grid of reducers and implements all four algorithms the paper studies,
//! plus a Shares-style hypercube join and a cost-based optimizer:
//!
//! * [`Algorithm::TwoWayCascade`] — the naive cascade of 2-way joins (§6);
//! * [`Algorithm::AllReplicate`] — the naive single-round 4th-quadrant
//!   replication (§6);
//! * [`Algorithm::ControlledReplicate`] — the paper's contribution: a
//!   two-round framework that replicates only rectangles satisfying the
//!   C1-C4 conditions (§7, §8, §9);
//! * [`Algorithm::ControlledReplicateLimit`] — *C-Rep-L*, which further
//!   limits how far marked rectangles travel using per-relation distance
//!   bounds derived from the join graph (§7.9);
//! * [`Algorithm::Hypercube`] — the Shares-style hypercube join: a
//!   reducer grid over per-relation *shares* instead of space;
//! * [`Algorithm::Auto`] (the default) — the [`optimizer`] picks among
//!   the above from one statistic per relation (records per home cell and
//!   side sums), which a store folds at open and a slice in one pass.
//!
//! Beside them: [`ann`], the nearest-neighbor join §10 names as future
//! work (one kNN scheme; the all-nearest-neighbor join is its `k = 1`);
//! [`optimizer::cascade_order`], the opt-in condition order for the
//! cascade; [`refine`], the refinement step over polygon payloads;
//! [`mod@reference`], the in-memory oracle; and [`shards`], the scatter/gather
//! of a map-side join.
//!
//! # Quickstart
//!
//! ```
//! use mwsj_core::{Algorithm, Cluster, ClusterConfig};
//! use mwsj_geom::Rect;
//! use mwsj_query::Query;
//!
//! // Three tiny relations in a [0, 100]^2 space.
//! let r1 = vec![Rect::new(10.0, 90.0, 5.0, 5.0)];
//! let r2 = vec![Rect::new(12.0, 88.0, 5.0, 5.0)];
//! let r3 = vec![Rect::new(14.0, 86.0, 5.0, 5.0)];
//!
//! let query = Query::parse("R1 overlaps R2 and R2 overlaps R3").unwrap();
//! let cluster = Cluster::new(ClusterConfig::for_space((0.0, 100.0), (0.0, 100.0), 4));
//! let output = cluster.run(&query, &[&r1, &r2, &r3], Algorithm::Auto);
//! assert_eq!(output.tuples, vec![vec![0, 0, 0]]);
//! assert_ne!(output.algorithm, Algorithm::Auto); // the optimizer's pick
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod ann;
mod cluster;
mod error;
pub mod optimizer;
mod record;
pub mod reference;
pub mod refine;
mod result;
mod run_config;
pub mod shards;

pub use algorithms::Algorithm;
pub use cluster::{Cluster, ClusterConfig};
pub use error::JoinError;
pub use record::TaggedRect;
pub use result::{JoinOutput, ReplicationStats};
pub use run_config::{combine_fingerprints, JoinRun, Run, StoredRun};

// Re-export the building blocks a downstream user needs alongside the core
// API, so `mwsj-core` is usable as a single dependency.
pub use mwsj_geom as geom;
pub use mwsj_local as local;
pub use mwsj_mapreduce as mapreduce;
pub use mwsj_partition as partition;
pub use mwsj_query as query;
pub use mwsj_rtree as rtree;
pub use mwsj_store as store;
