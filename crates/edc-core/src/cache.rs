//! Decompressed-run read cache (DRAM buffer).
//!
//! Every storage controller fronts its media with DRAM; for a compressed
//! store the natural cache unit is the *decompressed run* — a hit serves
//! the read at memory speed and skips both the flash fetch and the
//! decompression. The cache is LRU keyed by run identity (`run_start`)
//! and is invalidated by overwrites.
//!
//! The cache is generic over the cached value `V`. The simulator only
//! models hit/miss behaviour and uses `RunCache<()>` (identities alone);
//! the real write path ([`crate::pipeline::EdcPipeline`]) caches the
//! actual decompressed run bytes with `RunCache<Vec<u8>>` so repeated
//! reads of a hot run skip the device fetch and the decompressor.

use std::collections::HashMap;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Entries dropped by overwrite invalidation.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit rate over all lookups (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Fold another cache's counters into this one. Used to aggregate
    /// per-shard caches into one fleet-wide figure
    /// (`ShardedPipeline::stats`).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
    }
}

/// One resident run: its payload and last-use sequence number.
#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    last_use: u64,
}

/// LRU cache over run identities (`run_start` block numbers), holding a
/// value of type `V` per run — `()` for hit/miss simulation, decompressed
/// bytes for the real read path.
#[derive(Debug, Clone)]
pub struct RunCache<V = ()> {
    entries: HashMap<u64, Slot<V>>,
    capacity: usize,
    seq: u64,
    stats: CacheStats,
}

impl<V> RunCache<V> {
    /// Create a cache holding up to `capacity` runs (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        RunCache { entries: HashMap::new(), capacity, seq: 0, stats: CacheStats::default() }
    }

    /// Whether caching is enabled.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up a run; refreshes recency and returns the cached value on a
    /// hit.
    pub fn lookup(&mut self, run_start: u64) -> Option<&V> {
        if self.capacity == 0 {
            return None;
        }
        self.seq += 1;
        match self.entries.get_mut(&run_start) {
            Some(slot) => {
                slot.last_use = self.seq;
                self.stats.hits += 1;
                Some(&slot.value)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a run after a miss, evicting the least-recently-used entry
    /// when full.
    ///
    /// Returns the value displaced by this insert — the rejected value
    /// itself when caching is disabled, the LRU victim's value on a
    /// capacity eviction, or the previous value when re-inserting an
    /// existing key. Callers holding `RunCache<Vec<u8>>` recycle the
    /// returned buffer instead of letting its allocation die.
    pub fn insert(&mut self, run_start: u64, value: V) -> Option<V> {
        if self.capacity == 0 {
            return Some(value);
        }
        self.seq += 1;
        let mut evicted = None;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&run_start) {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|&(_, s)| s.last_use) {
                evicted = self.entries.remove(&victim).map(|s| s.value);
                self.stats.evictions += 1;
            }
        }
        let replaced = self.entries.insert(run_start, Slot { value, last_use: self.seq });
        evicted.or(replaced.map(|s| s.value))
    }

    /// Drop a run on overwrite or relocation. Returns the dropped value
    /// (if the run was resident) so `RunCache<Vec<u8>>` callers can
    /// recycle the buffer, mirroring [`RunCache::insert`].
    pub fn invalidate(&mut self, run_start: u64) -> Option<V> {
        let dropped = self.entries.remove(&run_start).map(|s| s.value);
        if dropped.is_some() {
            self.stats.invalidations += 1;
        }
        dropped
    }

    /// Current resident entries.
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

    #[test]
    fn disabled_cache_never_hits() {
        let mut c: RunCache = RunCache::new(0);
        assert!(!c.enabled());
        c.insert(1, ());
        assert!(c.lookup(1).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn hit_after_insert() {
        let mut c: RunCache = RunCache::new(4);
        assert!(c.lookup(7).is_none());
        c.insert(7, ());
        assert!(c.lookup(7).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c: RunCache = RunCache::new(2);
        c.insert(1, ());
        c.insert(2, ());
        assert!(c.lookup(1).is_some()); // 1 is now most recent
        c.insert(3, ()); // evicts 2
        assert!(c.lookup(1).is_some());
        assert!(c.lookup(2).is_none());
        assert!(c.lookup(3).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidation_drops_entry() {
        let mut c: RunCache<Vec<u8>> = RunCache::new(4);
        c.insert(9, vec![42]);
        assert_eq!(c.invalidate(9), Some(vec![42]), "dropped value handed back");
        assert!(c.lookup(9).is_none());
        assert_eq!(c.stats().invalidations, 1);
        // Invalidating an absent run is a no-op.
        assert_eq!(c.invalidate(9), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn capacity_respected() {
        let mut c: RunCache = RunCache::new(8);
        for i in 0..100 {
            c.insert(i, ());
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.stats().evictions, 92);
        // The last 8 inserted survive.
        for i in 92..100 {
            assert!(c.lookup(i).is_some(), "run {i}");
        }
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c: RunCache = RunCache::new(2);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(1, ()); // refresh, not a third entry
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn insert_returns_displaced_value() {
        // Disabled cache hands the buffer straight back.
        let mut off: RunCache<Vec<u8>> = RunCache::new(0);
        assert_eq!(off.insert(1, vec![7]), Some(vec![7]));

        let mut c: RunCache<Vec<u8>> = RunCache::new(2);
        assert_eq!(c.insert(1, vec![1]), None);
        assert_eq!(c.insert(2, vec![2]), None);
        // Capacity eviction returns the LRU victim's value.
        assert_eq!(c.insert(3, vec![3]), Some(vec![1]));
        // Re-insert returns the replaced value without an eviction.
        assert_eq!(c.insert(3, vec![4]), Some(vec![3]));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn merge_sums_every_counter() {
        let a = CacheStats { hits: 3, misses: 5, evictions: 1, invalidations: 2 };
        let b = CacheStats { hits: 7, misses: 11, evictions: 0, invalidations: 4 };
        let mut sum = a;
        sum.merge(&b);
        assert_eq!(sum, CacheStats { hits: 10, misses: 16, evictions: 1, invalidations: 6 });
        assert!((sum.hit_rate() - 10.0 / 26.0).abs() < 1e-12);
    }

    #[test]
    fn cached_values_round_trip() {
        let mut c: RunCache<Vec<u8>> = RunCache::new(2);
        c.insert(5, vec![1, 2, 3]);
        assert_eq!(c.lookup(5), Some(&vec![1, 2, 3]));
        // Re-insert replaces the value.
        c.insert(5, vec![9]);
        assert_eq!(c.lookup(5), Some(&vec![9]));
        assert_eq!(c.len(), 1);
    }
}
