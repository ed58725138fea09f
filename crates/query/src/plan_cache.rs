//! The query plan cache.
//!
//! Keyed by template fingerprint, each entry keeps the template, a
//! representative concrete query (the most recent instance — what-if cost
//! estimation needs concrete literals), the execution count and the
//! cumulative execution cost. The workload predictor reads periodic
//! snapshots; no per-query history is retained here, so recording stays
//! O(1) — the "no further overhead … during query execution time"
//! property the paper attributes to plan-cache-driven observation.

use std::collections::BTreeMap;

use smdb_common::{Cost, LogicalTime, Result};
use smdb_durable::{ByteReader, ByteWriter, Decode, Encode};

use crate::logical::LogicalTemplate;
use crate::query::Query;

/// One plan-cache entry (per template).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCacheEntry {
    pub template: LogicalTemplate,
    /// A concrete instance of the template (what-if cost estimation
    /// needs concrete literals). Of all instances recorded so far, the
    /// one with the smallest content hash is kept — a pure function of
    /// the observed query *set*, so the snapshot (and everything tuning
    /// derives from it) is identical however worker threads interleave.
    pub example: Query,
    /// Content hash of `example` (see [`example_rank`]).
    example_rank: u64,
    pub executions: u64,
    pub total_cost: Cost,
    pub first_seen: LogicalTime,
    pub last_seen: LogicalTime,
}

/// FNV-1a over a query's concrete literals (predicate values and the
/// group-by column) — the arrival-order-independent tie-break that picks
/// each template's representative example.
fn example_rank(query: &Query) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |byte: u8| h = (h ^ u64::from(byte)).wrapping_mul(PRIME);
    let eat_value = |v: &smdb_storage::Value, eat: &mut dyn FnMut(u8)| match v {
        smdb_storage::Value::Int(v) => {
            for b in v.to_le_bytes() {
                eat(b);
            }
        }
        smdb_storage::Value::Float(v) => {
            for b in v.to_bits().to_le_bytes() {
                eat(b);
            }
        }
        smdb_storage::Value::Text(s) => {
            for &b in s.as_bytes() {
                eat(b);
            }
        }
    };
    for p in query.predicates() {
        eat_value(&p.value, &mut eat);
        eat(0xfe);
        if let Some(upper) = &p.upper {
            eat_value(upper, &mut eat);
        }
        eat(0xff);
    }
    if let Some(col) = query.group_by() {
        for b in col.0.to_le_bytes() {
            eat(b);
        }
    }
    h
}

impl PlanCacheEntry {
    fn new(
        example: Query,
        executions: u64,
        total_cost: Cost,
        first_seen: LogicalTime,
        last_seen: LogicalTime,
    ) -> Self {
        PlanCacheEntry {
            template: example.template(),
            example_rank: example_rank(&example),
            example,
            executions,
            total_cost,
            first_seen,
            last_seen,
        }
    }

    /// Mean execution cost of this template.
    pub fn mean_cost(&self) -> Cost {
        if self.executions == 0 {
            Cost::ZERO
        } else {
            self.total_cost / self.executions as f64
        }
    }
}

/// A bounded, LRU-evicting query plan cache.
#[derive(Debug)]
pub struct PlanCache {
    entries: BTreeMap<u64, PlanCacheEntry>,
    max_entries: usize,
    evictions: u64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(4096)
    }
}

impl PlanCache {
    /// Creates a cache bounded to `max_entries` templates.
    pub fn new(max_entries: usize) -> Self {
        PlanCache {
            entries: BTreeMap::new(),
            max_entries: max_entries.max(1),
            evictions: 0,
        }
    }

    /// Records one execution of `query` costing `cost` at time `now`.
    pub fn record(&mut self, query: &Query, cost: Cost, now: LogicalTime) {
        let fp = query.fingerprint();
        match self.entries.get_mut(&fp) {
            Some(e) => {
                e.executions += 1;
                e.total_cost += cost;
                e.last_seen = now;
                // Min-rank representative: independent of which instance
                // happened to arrive first under concurrent workers.
                let rank = example_rank(query);
                if rank < e.example_rank {
                    e.example = query.clone();
                    e.example_rank = rank;
                }
            }
            None => {
                if self.entries.len() >= self.max_entries {
                    self.evict_lru();
                }
                self.entries
                    .insert(fp, PlanCacheEntry::new(query.clone(), 1, cost, now, now));
            }
        }
    }

    /// Number of cached templates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of templates evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up the entry of a template fingerprint.
    pub fn get(&self, fingerprint: u64) -> Option<&PlanCacheEntry> {
        self.entries.get(&fingerprint)
    }

    /// Reinstates one decoded entry, evicting as [`PlanCache::record`]
    /// would when the cache is full.
    pub fn restore_entry(&mut self, entry: PlanCacheEntry) {
        let fp = entry.example.fingerprint();
        if self.entries.len() >= self.max_entries && !self.entries.contains_key(&fp) {
            self.evict_lru();
        }
        self.entries.insert(fp, entry);
    }

    /// Every entry, borrowed, in fingerprint order — for a reader that
    /// holds the cache lock anyway and need not copy.
    pub fn entries(&self) -> impl Iterator<Item = &PlanCacheEntry> {
        self.entries.values()
    }

    /// A point-in-time snapshot of all entries (cloned, so the predictor
    /// can analyse without holding the cache lock).
    pub fn snapshot(&self) -> Vec<PlanCacheEntry> {
        let mut v: Vec<_> = self.entries.values().cloned().collect();
        // Deterministic order for downstream consumers (entries iterate
        // in query-fingerprint order; resort by template fingerprint).
        v.sort_by_key(|e| e.template.fingerprint());
        v
    }

    /// Clears all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn evict_lru(&mut self) {
        if let Some((&fp, _)) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| (e.last_seen, e.template.fingerprint()))
        {
            self.entries.remove(&fp);
            self.evictions += 1;
        }
    }
}

/// The example and the counters. The template and the example's rank are
/// derived and recomputed on decode, so a restored entry is
/// indistinguishable from one that only ever saw the surviving instance.
impl Encode for PlanCacheEntry {
    fn encode(&self, w: &mut ByteWriter) {
        self.example.encode(w);
        self.executions.encode(w);
        self.total_cost.encode(w);
        self.first_seen.encode(w);
        self.last_seen.encode(w);
    }
}

impl Decode for PlanCacheEntry {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(PlanCacheEntry::new(
            Query::decode(r)?,
            u64::decode(r)?,
            Cost::decode(r)?,
            LogicalTime::decode(r)?,
            LogicalTime::decode(r)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smdb_common::{ColumnId, TableId};
    use smdb_storage::ScanPredicate;

    fn q(table: u32, value: i64) -> Query {
        Query::new(
            TableId(table),
            format!("t{table}"),
            vec![ScanPredicate::eq(ColumnId(0), value)],
            None,
            format!("q{table}"),
        )
    }

    #[test]
    fn record_accumulates_per_template() {
        let mut cache = PlanCache::default();
        cache.record(&q(0, 1), Cost(2.0), LogicalTime(0));
        cache.record(&q(0, 2), Cost(4.0), LogicalTime(1));
        assert_eq!(cache.len(), 1);
        let e = cache.get(q(0, 9).fingerprint()).unwrap();
        assert_eq!(e.executions, 2);
        assert_eq!(e.total_cost, Cost(6.0));
        assert_eq!(e.mean_cost(), Cost(3.0));
        assert_eq!(e.first_seen, LogicalTime(0));
        assert_eq!(e.last_seen, LogicalTime(1));
        // The representative example is the min-rank instance — the same
        // whichever order the two instances were recorded in.
        let mut reversed = PlanCache::default();
        reversed.record(&q(0, 2), Cost(4.0), LogicalTime(0));
        reversed.record(&q(0, 1), Cost(2.0), LogicalTime(1));
        let r = reversed.get(q(0, 9).fingerprint()).unwrap();
        assert_eq!(
            e.example.predicates()[0].value,
            r.example.predicates()[0].value,
            "example selection must not depend on arrival order"
        );
    }

    #[test]
    fn lru_eviction() {
        let mut cache = PlanCache::new(2);
        cache.record(&q(0, 1), Cost(1.0), LogicalTime(0));
        cache.record(&q(1, 1), Cost(1.0), LogicalTime(1));
        // Touch t0 so t1 becomes LRU.
        cache.record(&q(0, 2), Cost(1.0), LogicalTime(2));
        cache.record(&q(2, 1), Cost(1.0), LogicalTime(3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(q(1, 0).fingerprint()).is_none());
        assert!(cache.get(q(0, 0).fingerprint()).is_some());
        assert!(cache.get(q(2, 0).fingerprint()).is_some());
    }

    #[test]
    fn snapshot_is_deterministic() {
        let mut cache = PlanCache::default();
        for t in 0..5 {
            cache.record(&q(t, 0), Cost(1.0), LogicalTime(0));
        }
        let a: Vec<u64> = cache
            .snapshot()
            .iter()
            .map(|e| e.template.fingerprint())
            .collect();
        let b: Vec<u64> = cache
            .snapshot()
            .iter()
            .map(|e| e.template.fingerprint())
            .collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn clear_empties() {
        let mut cache = PlanCache::default();
        cache.record(&q(0, 1), Cost(1.0), LogicalTime(0));
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }
}
