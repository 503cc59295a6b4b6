//! Event-loop networking for the mwsj serving tier.
//!
//! The serving tier (PR 6) began as thread-per-connection blocking TCP.
//! This crate supplies the primitives that turn it into a readiness
//! event loop able to hold thousands of connections on a handful of
//! threads:
//!
//! * [`poll`] — level-triggered readiness polling: `epoll` on Linux,
//!   `poll(2)` elsewhere on Unix, with the raw syscalls confined to one
//!   small `#[allow(unsafe_code)]` module each, plus a cross-thread
//!   [`poll::Waker`] built on a loopback socket pair.
//! * [`frame`] — protocol sniffing (first byte decides line-JSON vs
//!   binary) and the length-prefixed binary frame codec with typed,
//!   never-panicking decode errors.
//! * [`conn`] — per-connection state machines (read/write buffering,
//!   protocol sniffing, fault application, and the deadlines the event
//!   loop reads: last activity for idle eviction, an injected stall's
//!   resume instant) and the [`conn::Sequencer`] that keeps pipelined
//!   responses in request order.
//! * [`fault`] — deterministic network-fault injection: the
//!   [`fault::FaultGate`] decider, which draws a
//!   [`mwsj_mapreduce::NetFaultPlan`]'s decisions per (connection,
//!   operation) for the connection state machine to enact.
//!
//! Everything here is transport-only: no JSON, no query semantics, no
//! engine types — the server crate composes these into its service.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod fault;
pub mod frame;
pub mod poll;

pub use conn::{Connection, FlushOutcome, ProtoError, ReadOutcome, Sequencer};
pub use fault::FaultGate;
pub use frame::{FrameError, WireMode, FRAME_HEADER, FRAME_MAGIC};
pub use poll::{Event, Interest, Poller, Waker};
