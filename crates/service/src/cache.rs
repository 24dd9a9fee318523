//! Result cache keyed on `(graph, graph-version, algo, params)`.
//!
//! Entries store the exact value vector the device produced, so a cache
//! hit is bit-identical to a recompute: the property tests compare
//! `f32::to_bits` between cached and forced-recompute runs. Version
//! participation in the key means re-registering a graph silently
//! invalidates every result computed against the old upload — no
//! explicit flush protocol, no stale serve.
//!
//! Bounded by entry count with LRU eviction: a lookup or overwrite
//! refreshes the entry's recency, so the working set of a skewed query
//! mix stays resident while one-shot results age out first. Recency is a
//! monotone stamp per entry plus a `BTreeMap` from stamp to key, keeping
//! every operation O(log capacity) under one short lock. Evictions are
//! counted for `/stats`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::job::{Algo, JobValues};

/// Full identity of a result. `delta_bits` carries Δ-stepping's float
/// parameter as raw bits so the key stays `Eq + Hash` without rounding
/// games.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub graph: String,
    pub version: u64,
    pub algo: Algo,
    pub source: Option<u32>,
    pub delta_bits: Option<u32>,
}

/// Cached outcome of one job.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// Shared with the job record that produced (or was served) it.
    pub values: Arc<JobValues>,
    pub iterations: u32,
    /// Modelled device ms the original computation cost (reported on
    /// hits so callers can see what the cache saved).
    pub sim_ms: f64,
}

struct Entry {
    result: Arc<CachedResult>,
    /// This entry's position in the recency order (key into `recency`).
    stamp: u64,
}

struct CacheInner {
    map: HashMap<CacheKey, Entry>,
    /// Recency order: smallest stamp = least recently used.
    recency: BTreeMap<u64, CacheKey>,
    /// Monotone stamp source.
    tick: u64,
}

impl CacheInner {
    /// Moves `key`'s entry (already in `map`) to most-recently-used.
    fn touch(&mut self, key: &CacheKey) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(key) {
            self.recency.remove(&entry.stamp);
            entry.stamp = tick;
            self.recency.insert(tick, key.clone());
        }
    }
}

/// Shared result cache with hit/miss/eviction counters.
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// `capacity` = maximum retained entries (0 disables caching).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                recency: BTreeMap::new(),
                tick: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, bumping the hit/miss counters. A hit refreshes
    /// the entry's recency.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedResult>> {
        let mut inner = self.inner.lock();
        let found = inner.map.get(key).map(|e| e.result.clone());
        if found.is_some() {
            inner.touch(key);
        }
        drop(inner);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts (or overwrites) `key` at most-recently-used, evicting the
    /// least recently used entries while over capacity.
    pub fn put(&self, key: CacheKey, result: CachedResult) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let old = inner.map.insert(
            key.clone(),
            Entry {
                result: Arc::new(result),
                stamp: tick,
            },
        );
        if let Some(old) = old {
            inner.recency.remove(&old.stamp);
        }
        inner.recency.insert(tick, key);
        while inner.map.len() > self.capacity {
            let Some((&stamp, _)) = inner.recency.iter().next() else {
                break;
            };
            if let Some(victim) = inner.recency.remove(&stamp) {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the capacity bound (overwrites not counted).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Hits / lookups, 0.0 before any lookup.
    pub fn hit_ratio(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(src: u32) -> CacheKey {
        CacheKey {
            graph: "g".into(),
            version: 1,
            algo: Algo::Bfs,
            source: Some(src),
            delta_bits: None,
        }
    }

    fn result(v: u32) -> CachedResult {
        CachedResult {
            values: Arc::new(JobValues::U32(vec![v])),
            iterations: 1,
            sim_ms: 0.5,
        }
    }

    #[test]
    fn version_partitions_the_key_space() {
        let cache = ResultCache::new(16);
        cache.put(key(0), result(7));
        assert!(cache.get(&key(0)).is_some());
        let mut stale = key(0);
        stale.version = 2;
        assert!(cache.get(&stale).is_none(), "new version must miss");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_bounds_entries() {
        let cache = ResultCache::new(2);
        cache.put(key(0), result(0));
        cache.put(key(1), result(1));
        cache.put(key(2), result(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&key(0)).is_none(), "least recent entry evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_some());
    }

    #[test]
    fn get_refreshes_recency() {
        let cache = ResultCache::new(2);
        cache.put(key(0), result(0));
        cache.put(key(1), result(1));
        // Touch key(0): key(1) becomes least recently used.
        assert!(cache.get(&key(0)).is_some());
        cache.put(key(2), result(2));
        assert!(cache.get(&key(0)).is_some(), "recently used entry survives");
        assert!(cache.get(&key(1)).is_none(), "LRU entry evicted");
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn overwrite_refreshes_recency_without_eviction() {
        let cache = ResultCache::new(2);
        cache.put(key(0), result(0));
        cache.put(key(1), result(1));
        cache.put(key(0), result(7)); // overwrite: refresh, no eviction
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        cache.put(key(2), result(2));
        assert!(cache.get(&key(1)).is_none(), "stale entry evicted first");
        let v = cache.get(&key(0)).unwrap();
        assert_eq!(*v.values, JobValues::U32(vec![7]));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = ResultCache::new(0);
        cache.put(key(0), result(0));
        assert!(cache.get(&key(0)).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), 0);
    }
}
