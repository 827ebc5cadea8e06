//! The byte-budgeted LRU layer-replay cache.
//!
//! Repeated lineage queries over hot vertices are the serving plane's
//! common case (an investigator re-issuing and paginating the same
//! backward trace); decoding the same store segments for every page
//! would make pagination O(pages × replay). The cache keys a fully
//! materialized, deterministically ordered result sequence on
//! everything that determines it:
//!
//! * the compiled query fingerprint (FNV-1a of the PQL source and its
//!   parameter bindings) — which also fixes the predicates and columns
//!   a replay reads, since those are a function of the compiled query,
//! * the **effective** layer range (clamped, so `0..=MAX` and the
//!   store's true extent share an entry),
//! * the store's **mutation epoch**: a graph mutation appends a new
//!   provenance epoch and supersedes every materialized sequence, so
//!   pre-mutation entries must never answer post-mutation requests.
//!
//! Every replay reads strictly, so no key needs to tell a partial
//! result from a complete one.
//!
//! Eviction is LRU by byte budget: entries are charged their
//! materialized size and the least-recently-used entries are dropped
//! until the budget holds. `serve_cache_{hits,misses,evicted_bytes}_total`
//! plus entry/byte gauges make the hit rate scrapeable on `/metrics`.
//!
//! Invalidation: within one mutation epoch the served store is
//! immutable, so entries never go stale. When the service appends a
//! mutation epoch ([`crate::QueryService::append_epoch`]) the epoch in
//! every live key stops matching — stale entries become unreachable by
//! construction — and the service additionally calls
//! [`ReplayCache::clear`] so their bytes are freed immediately instead
//! of waiting for LRU pressure. A service that reopens its store must
//! start a fresh cache — `ReplayCache` is owned by the
//! [`crate::QueryService`] that owns the store, which enforces exactly
//! that.

use ariadne_pql::Tuple;
use std::collections::HashMap;
use std::sync::Arc;

/// Cached handles for the cache's own metrics.
mod obs_handles {
    use ariadne_obs::{static_counter, static_gauge};

    static_counter!(
        hits,
        "serve_cache_hits_total",
        "query requests answered from the replay cache (0 store bytes read)",
        false
    );
    static_counter!(
        misses,
        "serve_cache_misses_total",
        "query requests that had to replay the store",
        false
    );
    static_counter!(
        evicted_bytes,
        "serve_cache_evicted_bytes_total",
        "materialized result bytes evicted from the replay cache",
        false
    );
    static_gauge!(
        bytes,
        "serve_cache_bytes",
        "materialized result bytes currently held by the replay cache",
        false
    );
    static_gauge!(
        entries,
        "serve_cache_entries",
        "result sequences currently held by the replay cache",
        false
    );
}

/// Everything that determines a materialized result sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// FNV-1a fingerprint of the PQL source text and bindings.
    pub fingerprint: u64,
    /// Effective (clamped) inclusive layer range.
    pub layer_range: (u32, u32),
    /// The store's mutation epoch the sequence was materialized at.
    pub epoch: u64,
}

/// Replay counters a response reports alongside cached rows, so a
/// client can see what the *original* replay cost (and that a cache hit
/// cost zero).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplaySummary {
    /// Layer rounds replayed.
    pub layers: u32,
    /// Encoded store bytes decoded.
    pub bytes_read: usize,
    /// Store segments decoded.
    pub segments_read: usize,
    /// Store segments the predicate filter skipped.
    pub segments_skipped: usize,
}

/// One materialized, deterministically ordered result sequence.
#[derive(Debug)]
pub struct CachedResult {
    /// `(predicate, tuple)` rows: predicates in ascending name order,
    /// tuples in each relation's sorted order — the order cursors
    /// address into.
    pub rows: Vec<(String, Tuple)>,
    /// Materialized footprint charged against the budget.
    pub bytes: usize,
    /// What the replay that produced this cost.
    pub replay: ReplaySummary,
}

impl CachedResult {
    /// Build from flattened rows, computing the byte charge.
    pub fn new(rows: Vec<(String, Tuple)>, replay: ReplaySummary) -> CachedResult {
        let bytes = rows
            .iter()
            .map(|(pred, t)| {
                pred.len()
                    + std::mem::size_of::<Tuple>()
                    + t.iter().map(ariadne_pql::Value::byte_size).sum::<usize>()
            })
            .sum();
        CachedResult {
            rows,
            bytes,
            replay,
        }
    }
}

struct Entry {
    value: Arc<CachedResult>,
    last_used: u64,
}

/// LRU over [`CacheKey`]s with byte-budgeted eviction.
pub struct ReplayCache {
    budget: usize,
    used: usize,
    tick: u64,
    entries: HashMap<CacheKey, Entry>,
}

impl ReplayCache {
    /// A cache that holds at most `budget` materialized result bytes.
    pub fn new(budget: usize) -> ReplayCache {
        ReplayCache {
            budget,
            used: 0,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Look up `key`, bumping its recency. Counts a hit or miss.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<CachedResult>> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                obs_handles::hits().inc();
                Some(Arc::clone(&e.value))
            }
            None => {
                obs_handles::misses().inc();
                None
            }
        }
    }

    /// Insert `value` under `key`, evicting least-recently-used entries
    /// until the budget holds. A result larger than the whole budget is
    /// not cached at all (it would only evict everything and then churn).
    pub fn insert(&mut self, key: CacheKey, value: Arc<CachedResult>) {
        if value.bytes > self.budget {
            return;
        }
        self.tick += 1;
        if let Some(old) = self.entries.remove(&key) {
            self.used -= old.value.bytes;
        }
        while self.used + value.bytes > self.budget {
            let Some((&lru_key, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            let evicted = self.entries.remove(&lru_key).expect("lru key present");
            self.used -= evicted.value.bytes;
            obs_handles::evicted_bytes().add(evicted.value.bytes as u64);
        }
        self.used += value.bytes;
        self.entries.insert(
            key,
            Entry {
                value,
                last_used: self.tick,
            },
        );
        obs_handles::bytes().set(self.used as i64);
        obs_handles::entries().set(self.entries.len() as i64);
    }

    /// Drop every entry (mutation-epoch invalidation): stale keys are
    /// already unreachable, this frees their bytes immediately.
    pub fn clear(&mut self) {
        obs_handles::evicted_bytes().add(self.used as u64);
        self.entries.clear();
        self.used = 0;
        obs_handles::bytes().set(0);
        obs_handles::entries().set(0);
    }

    /// Materialized bytes currently held.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Result sequences currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ariadne_pql::Value;

    fn result(rows: usize, payload: &str) -> Arc<CachedResult> {
        Arc::new(CachedResult::new(
            (0..rows)
                .map(|i| {
                    (
                        "p".to_string(),
                        vec![Value::Id(i as u64), Value::str(payload)],
                    )
                })
                .collect(),
            ReplaySummary::default(),
        ))
    }

    fn key(fp: u64) -> CacheKey {
        CacheKey {
            fingerprint: fp,
            layer_range: (0, 3),
            epoch: 0,
        }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = ReplayCache::new(1 << 20);
        assert!(c.get(&key(1)).is_none());
        c.insert(key(1), result(4, "x"));
        let hit = c.get(&key(1)).expect("hit");
        assert_eq!(hit.rows.len(), 4);
        // Distinct queries, ranges and epochs are distinct entries.
        assert!(c.get(&key(2)).is_none());
        assert!(c
            .get(&CacheKey {
                layer_range: (0, 2),
                ..key(1)
            })
            .is_none());
        assert!(c.get(&CacheKey { epoch: 1, ..key(1) }).is_none());
    }

    #[test]
    fn clear_frees_everything() {
        let mut c = ReplayCache::new(1 << 20);
        c.insert(key(1), result(4, "x"));
        c.insert(key(2), result(4, "y"));
        assert!(c.used_bytes() > 0);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        assert!(c.get(&key(1)).is_none());
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let one = result(8, "0123456789");
        let per = one.bytes;
        // Room for exactly two entries.
        let mut c = ReplayCache::new(per * 2 + 1);
        c.insert(key(1), result(8, "0123456789"));
        c.insert(key(2), result(8, "0123456789"));
        assert_eq!(c.len(), 2);
        // Touch 1 so 2 is the LRU, then insert 3.
        assert!(c.get(&key(1)).is_some());
        c.insert(key(3), result(8, "0123456789"));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(1)).is_some(), "recently used survives");
        assert!(c.get(&key(2)).is_none(), "LRU evicted");
        assert!(c.get(&key(3)).is_some());
        assert!(c.used_bytes() <= per * 2 + 1);
    }

    #[test]
    fn oversized_results_are_not_cached() {
        let mut c = ReplayCache::new(8);
        c.insert(key(1), result(64, "a long payload string"));
        assert!(c.is_empty());
    }
}
