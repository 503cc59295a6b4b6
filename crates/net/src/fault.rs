//! Deterministic network-fault injection for the serving tier.
//!
//! [`FaultGate`] applies the decisions of a
//! [`mwsj_mapreduce::NetFaultPlan`] — abrupt disconnects, torn frames,
//! flipped bytes, mid-operation stalls and slow-loris reads — to one
//! event-loop connection. It only *decides*: the connection state machine
//! enacts the decision (deferring a stalled read until a resume instant
//! the event loop polls against instead of sleeping, tearing its own
//! buffers, latching death).
//!
//! Two deliberate choices keep the injected chaos honest:
//!
//! * **Byte corruption is inbound-only.** A flipped byte in a *request*
//!   exercises the server's parse/validate error paths; a flipped byte
//!   in a *response* would make the server lie to a healthy client,
//!   which no amount of server-side robustness could detect. Survivors
//!   therefore always receive byte-correct responses — the invariant
//!   the chaos suite asserts.
//! * **Decisions are per (connection, operation).** Connection ids come
//!   from the accept sequence and operation ids from per-direction
//!   counters — reads and writes count in separate id spaces — so a
//!   pinned seed yields the same fault pattern for the same traffic
//!   shape, independent of thread scheduling.

use mwsj_mapreduce::{NetFault, NetFaultPlan};

/// Read operations draw from a different id space than writes, so the
/// two directions' fault decisions are independent.
const READ_OP_BIT: u64 = 1 << 63;

/// Nonblocking fault decider for one event-loop connection.
///
/// Each read or flush attempt asks for one decision; the returned
/// operation id feeds [`fault_point`](FaultGate::fault_point) when the
/// fault needs a position (torn prefix length, corrupt byte index).
/// With no plan every decision is [`NetFault::None`].
pub struct FaultGate {
    plan: Option<NetFaultPlan>,
    conn: u64,
    reads: u64,
    writes: u64,
}

impl FaultGate {
    /// Creates a gate for connection `conn` (accept sequence number).
    #[must_use]
    pub fn new(plan: Option<NetFaultPlan>, conn: u64) -> FaultGate {
        FaultGate {
            plan,
            conn,
            reads: 0,
            writes: 0,
        }
    }

    /// Draws the next read-side decision and its operation id.
    pub fn next_read(&mut self) -> (u64, NetFault) {
        let op = READ_OP_BIT | self.reads;
        self.reads += 1;
        (op, self.decide(op))
    }

    /// Draws the next write-side decision and its operation id.
    pub fn next_write(&mut self) -> (u64, NetFault) {
        let op = self.writes;
        self.writes += 1;
        (op, self.decide(op))
    }

    fn decide(&self, op: u64) -> NetFault {
        self.plan
            .as_ref()
            .map_or(NetFault::None, |plan| plan.decide(self.conn, op))
    }

    /// The deterministic byte position for operation `op` within a
    /// buffer of length `len` (0 when no plan is armed).
    #[must_use]
    pub fn fault_point(&self, op: u64, len: usize) -> usize {
        self.plan
            .as_ref()
            .map_or(0, |plan| plan.fault_point(self.conn, op, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_connection() {
        let plan = NetFaultPlan::chaos(11, 0.3);
        for conn in 0..4u64 {
            let a: Vec<NetFault> = (0..32).map(|op| plan.decide(conn, op)).collect();
            let b: Vec<NetFault> = (0..32).map(|op| plan.decide(conn, op)).collect();
            assert_eq!(a, b);
        }
    }

    /// The gate's id scheme, pinned against the plan itself: reads draw
    /// operation ids `READ_OP_BIT | n`, writes draw `n`, each direction
    /// counting on its own, and both the decision and the fault position
    /// are exactly the plan's for (connection, operation).
    #[test]
    fn gate_and_stream_draw_identical_decisions() {
        let plan = NetFaultPlan::chaos(77, 0.5);
        let mut gate = FaultGate::new(Some(plan.clone()), 9);
        for i in 0..16u64 {
            let (op, fault) = gate.next_read();
            assert_eq!(op, READ_OP_BIT | i);
            assert_eq!(fault, plan.decide(9, op));
            assert_eq!(gate.fault_point(op, 100), plan.fault_point(9, op, 100));
            let (op, fault) = gate.next_write();
            assert_eq!(op, i);
            assert_eq!(fault, plan.decide(9, op));
            assert_eq!(gate.fault_point(op, 100), plan.fault_point(9, op, 100));
        }
    }

    #[test]
    fn transparent_gate_never_faults() {
        let mut gate = FaultGate::new(None, 0);
        for _ in 0..64 {
            assert_eq!(gate.next_read().1, NetFault::None);
            assert_eq!(gate.next_write().1, NetFault::None);
        }
        assert_eq!(gate.fault_point(0, 100), 0);
    }
}
