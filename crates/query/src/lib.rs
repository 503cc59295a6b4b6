//! The multi-way spatial join query model (§1.2 of the paper).
//!
//! A query is a conjunction of triples `(P_i, R_{i,1}, R_{i,2})` where each
//! `P_i` is an [`Predicate::Overlap`] or [`Predicate::Range`] predicate and
//! the `R`s are relations. The query is visualized as a *join graph*: one
//! vertex per relation, one edge per triple, edge weight 0 for overlap and
//! `d` for `Range(d)`.
//!
//! This crate provides:
//!
//! * [`Predicate`] — the two spatial predicates, evaluated on rectangles;
//! * [`Query`] / [`QueryBuilder`] — validated query construction;
//! * [`Query::parse`] — a small textual form
//!   (`"R1 overlaps R2 and R2 within 100 of R3"`);
//! * [`JoinGraph`] — adjacency, connectivity, traversal orders;
//! * [`JoinPlan`] — precompiled bind orders (per-depth probe and verify
//!   edges) for the reducer-local matcher;
//! * [`replication_bounds`] — the *C-Rep-L* per-relation replication
//!   distances (§7.9, §8) for arbitrary connected query graphs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod graph;
mod parser;
mod plan;
mod query;

pub use bounds::replication_bounds;
pub use graph::JoinGraph;
pub use parser::ParseError;
pub use plan::{JoinPlan, PlanStep, ProbeEdge, VerifyEdge};
pub use query::{Predicate, Query, QueryBuilder, QueryError, RelationId, Triple};
