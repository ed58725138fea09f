//! The shared what-if cost cache.
//!
//! Keys are `(query instance fingerprint, footprint cache key)` — see
//! [`crate::footprint`] — and values are the unweighted per-query cost in
//! milliseconds. Because estimators are pure functions of
//! `(catalog, footprint slice, query)`, concurrent duplicate computes
//! insert bit-identical values, so results are deterministic regardless
//! of thread count or hit/miss interleaving.
//!
//! Invalidation: entries are dropped when the estimator's
//! [`crate::CostEstimator::version`] moves (learned models refit), via
//! [`CostCache::sync_version`]; catalog changes need no flush because the
//! engine's catalog token is mixed into every footprint key. Every flush
//! bumps [`CostCache::generation`], so anything derived from the entries
//! (the assessor's per-pass price memo) can tell it no longer describes
//! this cache.
//!
//! Refits never interleave with an assessment fan-out: the tuning loop
//! refits between passes, and a pass's lookups all run under one
//! version. The atomics below rely on that and on nothing stronger.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use crate::features::ConfigContext;

const SHARDS: usize = 16;

/// Hasher for keys that are already hashes: both halves of a cost-cache
/// key are well-mixed 64-bit values (a query fingerprint and a footprint
/// key), and both maps' keys are produced in-process, so re-hashing them
/// through SipHash buys nothing. Folds the words with a rotate so the
/// two halves land on different bits; a single word is its own hash
/// (the selectors' exclusive-group ids, hashes too, use it that way).
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.rotate_left(32) ^ word;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type KeyMap<V> = HashMap<(u64, u64), V, BuildHasherDefault<KeyHasher>>;

/// Hit/miss counters, for experiment reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Counter growth since an earlier reading of the same cache —
    /// attributes hits/misses to one phase (e.g. a single feature's
    /// what-if assessments) when counters only ever accumulate.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// A sharded, `Sync` cost cache shared across assessor threads.
pub struct CostCache {
    shards: Vec<RwLock<KeyMap<f64>>>,
    /// `(catalog token, config fingerprint) -> context`, memoizing the
    /// O(catalog + configuration) `ConfigContext` build per configuration.
    contexts: RwLock<KeyMap<ConfigContext>>,
    /// Estimator version the entries were computed under.
    version: AtomicU64,
    /// How many times the entries were flushed.
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CostCache {
    /// Creates an empty cache.
    pub fn new() -> CostCache {
        let mut shards = Vec::with_capacity(SHARDS);
        shards.resize_with(SHARDS, || RwLock::new(KeyMap::default()));
        CostCache {
            shards,
            contexts: RwLock::new(KeyMap::default()),
            version: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: (u64, u64)) -> &RwLock<KeyMap<f64>> {
        // Bits 32.. pick the shard: the map inside indexes by the low
        // bits and tags by the top ones of (nearly) the same value.
        &self.shards[((key.0 ^ key.1) >> 32) as usize % SHARDS]
    }

    /// Flushes entries if the estimator's version moved since they were
    /// computed. Callers invoke this before a batch of lookups; learned
    /// models only move versions at refit time, which the tuning loop
    /// never interleaves with assessment fan-out.
    pub fn sync_version(&self, version: u64) {
        // ordering: nothing but the version hangs on it; pairs with the CAS.
        let current = self.version.load(Ordering::Acquire);
        if current != version
            && self
                .version
                // A refit never interleaves with an assessment fan-out (the
                // module docs), so no lookup of this cache races the flush.
                // ordering: AcqRel lets exactly one racing caller flush.
                .compare_exchange(current, version, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            self.clear();
        }
    }

    /// Looks up a per-query cost (ms), counting the hit or miss into the
    /// caller's `tally`. Callers batch a run of lookups into one tally
    /// and [`CostCache::record`] it once: two assessor threads counting
    /// every lookup on the shared counters bounce their cache line per
    /// lookup, which cost a converged pass about as much again as the
    /// lookups themselves.
    pub fn lookup(&self, key: (u64, u64), tally: &mut CacheStats) -> Option<f64> {
        let got = self.shard(key).read().get(&key).copied();
        if got.is_some() {
            tally.hits += 1;
        } else {
            tally.misses += 1;
        }
        got
    }

    /// Adds a batch of counted lookups to the shared counters.
    pub fn record(&self, tally: CacheStats) {
        // ordering: independent statistic counters, read only for reports.
        self.hits.fetch_add(tally.hits, Ordering::Relaxed);
        // ordering: as above.
        self.misses.fetch_add(tally.misses, Ordering::Relaxed);
    }

    /// Inserts a computed per-query cost (ms). Returns whether it added
    /// the entry: `false` means another fan-out worker missed the same
    /// key first and inserted it while this caller computed.
    pub fn insert(&self, key: (u64, u64), value: f64) -> bool {
        self.shard(key).write().insert(key, value).is_none()
    }

    /// Looks up a memoized context for a configuration (a cheap clone:
    /// the digest's sums are shared).
    pub fn context_lookup(&self, key: (u64, u64)) -> Option<ConfigContext> {
        self.contexts.read().get(&key).cloned()
    }

    /// Memoizes a configuration's context.
    pub fn context_insert(&self, key: (u64, u64), ctx: ConfigContext) {
        self.contexts.write().insert(key, ctx);
    }

    /// Drops every entry (counters are kept — they describe workload
    /// behaviour, not current occupancy).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
        self.contexts.write().clear();
        // Compared only between passes, which a flush never interleaves
        // with (module docs); the maps' own locks order the entries.
        // ordering: a lone counter, so Relaxed.
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// How many times [`CostCache::clear`] (or a version flush) emptied
    /// the cache: equal readings bracket a span in which no entry was
    /// dropped.
    pub fn generation(&self) -> u64 {
        // ordering: as in `clear`.
        self.generation.load(Ordering::Relaxed)
    }

    /// Number of cached per-query costs.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            // ordering: independent statistic counters, read only for reports.
            hits: self.hits.load(Ordering::Relaxed),
            // ordering: as above.
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl Default for CostCache {
    fn default() -> Self {
        CostCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = CostCache::new();
        let mut tally = CacheStats::default();
        assert_eq!(cache.lookup((1, 2), &mut tally), None);
        assert!(cache.insert((1, 2), 4.5), "a new key is added");
        assert!(!cache.insert((1, 2), 4.5), "a present key is not");
        assert_eq!(cache.lookup((1, 2), &mut tally), Some(4.5));
        assert_eq!(cache.stats(), CacheStats::default(), "not yet recorded");
        cache.record(tally);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn version_change_flushes_entries() {
        let cache = CostCache::new();
        cache.insert((1, 2), 4.5);
        let engine = smdb_storage::StorageEngine::default();
        let ctx = ConfigContext::new(&engine, &smdb_storage::ConfigInstance::default());
        cache.context_insert((9, 9), ctx);
        cache.sync_version(0);
        assert_eq!(cache.len(), 1, "same version keeps entries");
        assert_eq!(cache.generation(), 0);
        cache.sync_version(1);
        assert!(cache.is_empty());
        assert!(cache.context_lookup((9, 9)).is_none());
        assert_eq!(cache.generation(), 1, "a version flush is a clear");
        cache.clear();
        assert_eq!(cache.generation(), 2);
    }

    #[test]
    fn empty_stats_have_zero_hit_rate() {
        assert_eq!(CostCache::new().stats().hit_rate(), 0.0);
    }
}
