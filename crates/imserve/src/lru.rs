//! The one `TopK` cache: seed-set selections keyed by `(epoch, k, algorithm)`.
//!
//! Seed-set selection (`TopK`) is the expensive query path — greedy maximum
//! coverage over the whole RR-set pool, or a router's rounds over its shards
//! — while `Estimate` is a cheap posting-list merge, so only `TopK` results
//! are cached. A selection is a pure function of the pool at an epoch, `k`
//! and the algorithm, and that is the whole key: a mutation moves the epoch,
//! so an entry computed before it can never be looked up after it. The
//! engine and the shard router each hold one. The cache is tiny (distinct
//! `(k, algorithm)` combinations number in the dozens), so a linear eviction
//! scan is simpler and faster than an intrusive list.

use std::collections::HashMap;
use std::sync::Arc;

use imobs::Counter;

use crate::obs::ServingMetrics;
use crate::protocol::TopKAlgorithm;
use crate::service::TopKSelection;

/// What a selection is a function of: `(epoch, k, algorithm)`.
type Key = (u64, usize, TopKAlgorithm);

/// A bounded selection cache evicting the least-recently-used entry on
/// overflow, counting its hits and misses into the
/// `imserve_topk_cache_{hits,misses}_total` counters it was built from.
#[derive(Debug)]
pub struct TopKCache {
    capacity: usize,
    tick: u64,
    map: HashMap<Key, (TopKSelection, u64)>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl TopKCache {
    /// A cache holding at most `capacity` selections, counting into `obs`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize, obs: &ServingMetrics) -> Self {
        assert!(capacity > 0, "TopK cache needs positive capacity");
        Self {
            capacity,
            tick: 0,
            map: HashMap::with_capacity(capacity),
            hits: Arc::clone(&obs.topk_cache_hits),
            misses: Arc::clone(&obs.topk_cache_misses),
        }
    }

    /// The selection cached for `(epoch, k, algorithm)`, marking it
    /// most-recently-used and counting a hit.
    pub fn get(&mut self, epoch: u64, k: usize, algorithm: TopKAlgorithm) -> Option<TopKSelection> {
        self.tick += 1;
        let (selection, used) = self.map.get_mut(&(epoch, k, algorithm))?;
        *used = self.tick;
        self.hits.inc();
        Some(selection.clone())
    }

    /// Cache `selection` as the answer for `(epoch, k)` and its algorithm,
    /// counting a miss (it was computed because `get` found nothing), and
    /// evict the least-recently-used entry if the cache is full and the key
    /// is new.
    pub fn insert(&mut self, epoch: u64, k: usize, selection: TopKSelection) {
        self.tick += 1;
        self.misses.inc();
        let key = (epoch, k, selection.algorithm);
        if self.map.len() == self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(key, _)| *key)
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (selection, self.tick));
    }

    /// Drop every entry (a torn shard broadcast leaves no epoch to trust).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Number of cached selections.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GREEDY: TopKAlgorithm = TopKAlgorithm::Greedy;

    /// A distinguishable greedy selection of one seed.
    fn selection(seed: u32) -> TopKSelection {
        TopKSelection {
            seeds: vec![seed],
            spread: f64::from(seed),
            algorithm: GREEDY,
        }
    }

    fn cache(capacity: usize) -> TopKCache {
        TopKCache::new(capacity, &ServingMetrics::with_defaults())
    }

    #[test]
    fn hit_and_miss() {
        let obs = ServingMetrics::with_defaults();
        let mut cache = TopKCache::new(2, &obs);
        assert!(cache.is_empty());
        cache.insert(0, 1, selection(1));
        assert_eq!(cache.get(0, 1, GREEDY), Some(selection(1)));
        assert_eq!(cache.get(0, 2, GREEDY), None);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.capacity(), 2);
        assert_eq!(obs.topk_cache_hits.get(), 1);
        assert_eq!(obs.topk_cache_misses.get(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = cache(2);
        cache.insert(0, 1, selection(10));
        cache.insert(0, 2, selection(20));
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(cache.get(0, 1, GREEDY), Some(selection(10)));
        cache.insert(0, 3, selection(30));
        assert_eq!(cache.get(0, 2, GREEDY), None, "2 was least recently used");
        assert_eq!(cache.get(0, 1, GREEDY), Some(selection(10)));
        assert_eq!(cache.get(0, 3, GREEDY), Some(selection(30)));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut cache = cache(2);
        cache.insert(0, 1, selection(10));
        cache.insert(0, 2, selection(20));
        cache.insert(0, 1, selection(11));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(0, 1, GREEDY), Some(selection(11)));
        assert_eq!(cache.get(0, 2, GREEDY), Some(selection(20)));
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_panics() {
        let _ = cache(0);
    }

    #[test]
    fn one_k_and_algorithm_at_two_epochs_are_two_entries() {
        let mut cache = cache(2);
        cache.insert(0, 3, selection(10));
        cache.insert(1, 3, selection(11));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(0, 3, GREEDY), Some(selection(10)));
        assert_eq!(cache.get(1, 3, GREEDY), Some(selection(11)));
        assert_eq!(cache.get(2, 3, GREEDY), None);
    }
}
