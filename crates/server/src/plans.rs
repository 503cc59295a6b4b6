//! The plan memo: costed plans by what they are a function of.
//!
//! [`mwsj_core::optimizer`] plans are a pure function of `(canonical
//! query, datasets, grid, reducers)`, and one server fixes the grid and
//! the reducers and binds every dataset as a store on that grid, so
//! `(canonical query text, per-position dataset fingerprints)` names a
//! plan completely — a `store:` spec and the spec it was ingested from
//! share one entry. Planning
//! costs time proportional to the datasets (an index shuffle,
//! sample-pair tests); a request that has been planned
//! before — every result-cache hit, every repeated `explain` — reads the
//! plan back from here. Because the planner is deterministic the memo
//! is bit-transparent: chosen algorithms, cache keys and `explain` JSON
//! cannot tell a memo hit from a fresh plan.

use std::collections::HashMap;
use std::sync::Arc;

use mwsj_core::optimizer::Plan;
use parking_lot::Mutex;

/// Plans kept before the memo is cleared: plans are cheap next to joins,
/// so absorbing the repeats matters and recency order does not.
const PLAN_MEMO_CAP: usize = 1024;

/// Everything a plan depends on that one server does not fix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// Canonical query text ([`mwsj_query::Query::canonical`] rendering).
    pub query: String,
    /// Dataset fingerprints in canonical position order.
    pub fingerprints: Vec<u64>,
}

/// Point-in-time memo statistics (the `plans` block of the `stats` op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to plan.
    pub misses: u64,
    /// Plans currently held.
    pub entries: usize,
}

#[derive(Default)]
struct MemoState {
    map: HashMap<PlanKey, Arc<Plan>>,
    hits: u64,
    misses: u64,
}

/// The bounded plan memo.
#[derive(Default)]
pub(crate) struct PlanMemo(Mutex<MemoState>);

impl PlanMemo {
    /// The memoized plan for `key`, computing it with `plan` on a miss.
    /// `plan` runs outside the lock; racing misses on one key each plan
    /// (the plans are identical) and the first insert is kept.
    pub fn get_or_plan(&self, key: PlanKey, plan: impl FnOnce() -> Plan) -> Arc<Plan> {
        {
            let mut s = self.0.lock();
            if let Some(hit) = s.map.get(&key) {
                let hit = Arc::clone(hit);
                s.hits += 1;
                return hit;
            }
            s.misses += 1;
        }
        let planned = Arc::new(plan());
        let mut s = self.0.lock();
        if s.map.len() >= PLAN_MEMO_CAP {
            s.map.clear();
        }
        Arc::clone(s.map.entry(key).or_insert(planned))
    }

    /// The memoized plan for `key`, if there is one: a hit counts as a
    /// hit, absence counts nothing — whoever plans it counts the miss.
    pub fn peek(&self, key: &PlanKey) -> Option<Arc<Plan>> {
        let mut s = self.0.lock();
        let hit = Arc::clone(s.map.get(key)?);
        s.hits += 1;
        Some(hit)
    }

    /// Current statistics.
    pub fn stats(&self) -> PlanStats {
        let s = self.0.lock();
        PlanStats {
            hits: s.hits,
            misses: s.misses,
            entries: s.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwsj_core::Algorithm;

    fn key(i: usize) -> PlanKey {
        PlanKey {
            query: "A ov B".to_string(),
            fingerprints: vec![i as u64, 7],
        }
    }

    fn plan() -> Plan {
        Plan {
            algorithm: Algorithm::TwoWayCascade,
            reducers: 64,
            grid: (8, 8),
            shares: None,
            candidates: Vec::new(),
        }
    }

    #[test]
    fn second_lookup_is_a_hit_and_does_not_plan() {
        let memo = PlanMemo::default();
        let first = memo.get_or_plan(key(1), plan);
        let second = memo.get_or_plan(key(1), || unreachable!("memoized"));
        assert!(Arc::ptr_eq(&first, &second));
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn every_key_field_separates_entries() {
        let memo = PlanMemo::default();
        memo.get_or_plan(key(1), plan);
        let mut other_query = key(1);
        other_query.query = "A ov B and B ov C".to_string();
        for k in [other_query, key(2)] {
            memo.get_or_plan(k, plan);
        }
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 3, 3));
    }

    #[test]
    fn never_exceeds_its_cap() {
        let memo = PlanMemo::default();
        for i in 0..10 * PLAN_MEMO_CAP {
            memo.get_or_plan(key(i), plan);
            assert!(memo.stats().entries <= PLAN_MEMO_CAP);
        }
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (0, 10 * PLAN_MEMO_CAP as u64));
        // Overflow clears rather than evicts, so the newest key stays.
        memo.get_or_plan(key(10 * PLAN_MEMO_CAP - 1), || unreachable!("memoized"));
    }
}
