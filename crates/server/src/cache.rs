//! A byte-budgeted LRU cache for join results.
//!
//! The key is the *canonical* query text plus the fingerprints of the
//! datasets bound to its canonical positions — so two clients spelling
//! the same join differently (`"B ov A"` vs `"A overlaps B"`, reordered
//! conjuncts, duplicated predicates) share one entry, while any change to
//! the underlying data (a different seed, one perturbed rectangle)
//! changes a dataset fingerprint ([`mwsj_core::store::dataset_fingerprint`])
//! and misses cleanly.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

/// Cache key: canonicalized query + per-position dataset fingerprints +
/// execution knobs that change the observable result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical query text ([`mwsj_query::Query::canonical`] rendering).
    pub query: String,
    /// Dataset fingerprints in canonical position order.
    pub fingerprints: Vec<u64>,
    /// Wire name of the algorithm (counters differ per algorithm).
    pub algorithm: String,
    /// Whether tuples were materialized.
    pub count_only: bool,
}

/// A cached join result, in canonical position order.
#[derive(Debug)]
pub struct CachedResult {
    /// Sorted result tuples, ids per *canonical* position.
    pub tuples: Vec<Vec<u32>>,
    /// Total tuples (meaningful in count-only mode too).
    pub tuple_count: u64,
    /// Pre-rendered per-job logical counters (JSON array text).
    pub counters: String,
    /// Wire name of the concrete algorithm that produced the result
    /// (never `"auto"`; reported in responses so cache hits state what
    /// originally ran).
    pub algorithm: String,
}

struct Entry {
    value: Arc<CachedResult>,
    bytes: usize,
    last_used: u64,
}

struct CacheState {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups that returned an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to stay under budget.
    pub evictions: u64,
    /// Bytes currently charged.
    pub bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
}

/// The byte-budgeted LRU result cache.
pub struct ResultCache {
    budget: usize,
    state: Mutex<CacheState>,
}

impl ResultCache {
    /// Creates a cache with the given byte budget. A zero budget disables
    /// caching (every lookup misses, every insert is dropped).
    #[must_use]
    pub fn new(budget: usize) -> Self {
        Self {
            budget,
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    fn cost(key: &CacheKey, value: &CachedResult) -> usize {
        let key_bytes = key.query.len() + key.fingerprints.len() * 8 + key.algorithm.len();
        let tuple_bytes: usize = value.tuples.iter().map(tuple_cost).sum();
        key_bytes + tuple_bytes + value.counters.len() + value.algorithm.len() + 64
    }

    /// Looks up a result, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedResult>> {
        self.lookup(key, true)
    }

    /// [`ResultCache::get`] for a caller that hands a miss on to someone
    /// who will look again: a hit is a hit, absence is not counted.
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<CachedResult>> {
        self.lookup(key, false)
    }

    fn lookup(&self, key: &CacheKey, count_miss: bool) -> Option<Arc<CachedResult>> {
        let mut s = self.state.lock();
        s.tick += 1;
        let tick = s.tick;
        match s.map.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                let v = Arc::clone(&e.value);
                s.hits += 1;
                Some(v)
            }
            None => {
                s.misses += u64::from(count_miss);
                None
            }
        }
    }

    /// Inserts a result, evicting least-recently-used entries until the
    /// budget holds. Results larger than the whole budget are not cached.
    pub fn insert(&self, key: CacheKey, value: CachedResult) -> Arc<CachedResult> {
        let bytes = Self::cost(&key, &value);
        let value = Arc::new(value);
        if bytes > self.budget {
            return value;
        }
        let mut s = self.state.lock();
        s.tick += 1;
        let tick = s.tick;
        if let Some(old) = s.map.remove(&key) {
            s.bytes -= old.bytes;
        }
        while s.bytes + bytes > self.budget {
            let Some(lru) = s
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let evicted = s.map.remove(&lru).expect("lru key just found");
            s.bytes -= evicted.bytes;
            s.evictions += 1;
        }
        s.map.insert(
            key,
            Entry {
                value: Arc::clone(&value),
                bytes,
                last_used: tick,
            },
        );
        s.bytes += bytes;
        value
    }

    /// Recomputes resident bytes from first principles (test oracle for
    /// the incremental accounting in `bytes`).
    #[cfg(test)]
    fn recomputed_bytes(&self) -> usize {
        let s = self.state.lock();
        s.map.iter().map(|(k, e)| Self::cost(k, &e.value)).sum()
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let s = self.state.lock();
        CacheStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            bytes: s.bytes,
            entries: s.map.len(),
        }
    }
}

/// What one cached tuple holds: its `Vec` header plus the heap block of
/// its ids. The block is glibc malloc's chunk for the request — the
/// `capacity × 4` bytes asked for plus an 8-byte size header, rounded up
/// to 16 bytes, and never below the 32-byte minimum chunk — so an arity-3
/// tuple costs 24 + 32 = 56 bytes, not the 36 its ids and header add to.
fn tuple_cost(tuple: &Vec<u32>) -> usize {
    let ids = tuple.capacity() * std::mem::size_of::<u32>();
    std::mem::size_of::<Vec<u32>>() + (ids + 8).next_multiple_of(16).max(32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tuple_is_charged_its_header_and_malloc_chunk() {
        // What an entry's tuples add to its charge.
        let charge = |tuples: Vec<Vec<u32>>| {
            let value = CachedResult {
                tuples,
                ..result(0)
            };
            ResultCache::cost(&key("q", 1), &value) - ResultCache::cost(&key("q", 1), &result(0))
        };
        for arity in 1..=8u32 {
            let tuples: Vec<Vec<u32>> = (0..10).map(|i| (i..i + arity).collect()).collect();
            let floor: usize = tuples.iter().map(|t| 24 + t.capacity() * 4 + 8).sum();
            assert!(charge(tuples) >= floor, "arity {arity}");
        }
        assert_eq!(charge(vec![vec![1, 2, 3]]), 24 + 32);
        assert_eq!(charge(vec![vec![0; 7]]), 24 + 48);
    }

    fn key(q: &str, fp: u64) -> CacheKey {
        CacheKey {
            query: q.to_string(),
            fingerprints: vec![fp, fp ^ 1],
            algorithm: "crep".to_string(),
            count_only: false,
        }
    }

    fn result(n: usize) -> CachedResult {
        CachedResult {
            tuples: (0..n).map(|i| vec![i as u32, i as u32]).collect(),
            tuple_count: n as u64,
            counters: "[]".to_string(),
            algorithm: "crep".to_string(),
        }
    }

    #[test]
    fn hit_after_insert_and_fingerprint_miss() {
        let c = ResultCache::new(1 << 20);
        c.insert(key("q", 7), result(3));
        assert!(c.get(&key("q", 7)).is_some());
        assert!(c.get(&key("q", 8)).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn evicts_least_recently_used_under_pressure() {
        let one = ResultCache::cost(&key("a", 1), &result(10));
        let c = ResultCache::new(one * 2 + 1);
        c.insert(key("a", 1), result(10));
        c.insert(key("b", 2), result(10));
        assert!(c.get(&key("a", 1)).is_some()); // refresh `a`; `b` is now LRU
        c.insert(key("c", 3), result(10));
        assert!(c.get(&key("a", 1)).is_some());
        assert!(c.get(&key("b", 2)).is_none());
        assert!(c.get(&key("c", 3)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.stats().bytes <= one * 2 + 1);
    }

    #[test]
    fn oversized_and_zero_budget_results_bypass() {
        let zero = ResultCache::new(0);
        zero.insert(key("q", 1), result(1));
        assert!(zero.get(&key("q", 1)).is_none());
        let tiny = ResultCache::new(8);
        tiny.insert(key("q", 1), result(1000));
        assert_eq!(tiny.stats().entries, 0);
    }

    #[test]
    fn reinsert_replaces_without_double_charging() {
        let c = ResultCache::new(1 << 20);
        c.insert(key("q", 1), result(5));
        let before = c.stats().bytes;
        c.insert(key("q", 1), result(5));
        assert_eq!(c.stats().bytes, before);
        assert_eq!(c.stats().entries, 1);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// After every operation in an arbitrary get/insert sequence,
            /// the incrementally maintained byte counter equals the sum
            /// of the resident entries' costs and never exceeds the
            /// budget — no leaks on eviction, no double charges on
            /// re-insert, no phantom bytes from bypassed inserts.
            #[test]
            fn bytes_always_equal_resident_entry_costs(
                budget in 0usize..4096,
                ops in proptest::collection::vec(
                    (proptest::bool::ANY, 0u8..6, 0u64..4, 0usize..24),
                    0..64,
                ),
            ) {
                let c = ResultCache::new(budget);
                for (is_insert, q, fp, n) in ops {
                    let k = key(&format!("q{q}"), fp);
                    if is_insert {
                        c.insert(k, result(n));
                    } else {
                        c.get(&k);
                    }
                    let s = c.stats();
                    prop_assert_eq!(s.bytes, c.recomputed_bytes());
                    prop_assert!(s.bytes <= budget);
                }
            }
        }
    }
}
