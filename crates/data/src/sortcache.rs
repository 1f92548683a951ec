//! Cross-query memoization of sorted relation views.
//!
//! Every `FactorizedEngine::run` (and any other consumer of
//! [`Relation::sorted_by`]) used to re-sort each relation from scratch —
//! so a CART trainer running one aggregate batch per tree node paid the
//! full sort bill at every node. A [`SortCache`] memoizes the sorted view
//! keyed on `(relation content state, column order)`:
//!
//! * the content state is [`Relation::data_id`], which every mutation
//!   refreshes — so **invalidation is automatic**: a mutated relation
//!   simply never hits the stale entry again (stale entries age out of the
//!   FIFO capacity bound);
//! * the column order is the exact attribute-position sequence passed to
//!   `sorted_by`, so different variable orders coexist.
//!
//! Cached views are shared as `Arc<Relation>`: engines hold them across
//! `Engine::run` calls without copying, and concurrent queries share one
//! sorted copy.
//!
//! # Striping
//!
//! The table is split into [`DEFAULT_STRIPES`] shards, each behind its own
//! `Mutex`, selected by hashing the source relation's `data_id`. Concurrent
//! readers of *different* relations therefore never serialize on one global
//! lock, while all views (and per-relation stats) of a single relation stay
//! colocated in one stripe. The capacity and byte bounds remain **global**:
//! entry/byte totals live in atomics and eviction always removes the
//! globally oldest entry (per-entry admission sequence numbers, scanning
//! stripe fronts one lock at a time), so the observable FIFO semantics are
//! identical to the former single-lock cache.

use crate::relation::Relation;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default number of sorted views the global cache retains.
pub const DEFAULT_CAPACITY: usize = 128;

/// Default ceiling on the total approximate bytes of retained views. Both
/// bounds apply: whichever is hit first evicts (so 128 small dimension
/// views can coexist, but a handful of fact-table views already rotate).
pub const DEFAULT_BYTE_BUDGET: usize = 256 << 20;

/// Number of lock stripes of the global caches (this one and `fdb-core`'s
/// view cache).
pub const DEFAULT_STRIPES: usize = 16;

type Key = (u64, Vec<usize>);

/// A monotone snapshot of a cache's global counters — the observability
/// contract shared by this cache and `fdb-core`'s view cache. Counters
/// survive [`SortCache::clear`] so deltas around a workload stay
/// meaningful.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute (an actual sort).
    pub misses: u64,
    /// Entries dropped to respect the capacity or byte bound.
    pub evictions: u64,
    /// Entries currently retained.
    pub entries: usize,
    /// Approximate bytes currently retained.
    pub bytes: usize,
}

#[derive(Default)]
struct Stripe {
    entries: HashMap<Key, Arc<Relation>>,
    /// Admission order within this stripe, with each entry's global
    /// admission sequence number. Fronts across stripes locate the
    /// globally oldest entry for FIFO eviction.
    order: VecDeque<(Key, u64)>,
    /// Per-source-relation `(hits, misses)`, keyed by `data_id`. Bounded:
    /// cleared wholesale when it outgrows the stripe by a wide margin.
    stats: HashMap<u64, (u64, u64)>,
}

/// A bounded memo table for [`Relation::sorted_by`] results, striped by
/// `data_id` hash so concurrent lookups of different relations don't
/// serialize. Counter reads ([`SortCache::counters`], [`SortCache::len`],
/// [`SortCache::byte_size`]) are lock-free atomics.
pub struct SortCache {
    stripes: Vec<Mutex<Stripe>>,
    capacity: usize,
    byte_budget: usize,
    /// Global admission sequence: orders entries across stripes for FIFO.
    seq: AtomicU64,
    /// Global monotone counters (survive [`SortCache::clear`]).
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Current totals across all stripes.
    entries: AtomicUsize,
    bytes: AtomicUsize,
}

impl SortCache {
    /// An empty cache retaining at most `capacity` sorted views within the
    /// default byte budget.
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_budget(capacity, DEFAULT_BYTE_BUDGET)
    }

    /// An empty cache bounded by both an entry count and a total byte
    /// budget (approximate, via [`Relation::byte_size`]).
    pub fn with_byte_budget(capacity: usize, byte_budget: usize) -> Self {
        Self::with_stripes(capacity, byte_budget, DEFAULT_STRIPES)
    }

    /// An empty cache with an explicit stripe count (the race tests; the
    /// global cache uses [`DEFAULT_STRIPES`]).
    pub fn with_stripes(capacity: usize, byte_budget: usize, nstripes: usize) -> Self {
        Self {
            stripes: (0..nstripes.max(1)).map(|_| Mutex::new(Stripe::default())).collect(),
            capacity: capacity.max(1),
            byte_budget: byte_budget.max(1),
            seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
        }
    }

    /// The process-wide cache used by the engines.
    pub fn global() -> &'static SortCache {
        static GLOBAL: OnceLock<SortCache> = OnceLock::new();
        GLOBAL.get_or_init(|| SortCache::new(DEFAULT_CAPACITY))
    }

    /// `rel` sorted lexicographically by `attrs` (stable), served from the
    /// cache when this exact `(content state, column order)` was sorted
    /// before.
    pub fn sorted_by(&self, rel: &Relation, attrs: &[usize]) -> Arc<Relation> {
        let id = rel.data_id();
        let si = self.stripe_of(id);
        {
            let mut stripe = self.lock(si);
            if let Some(hit) = stripe.entries.get(&(id, attrs.to_vec())) {
                let hit = Arc::clone(hit);
                stripe.stats.entry(id).or_default().0 += 1;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
        }
        // Sort outside the lock: concurrent queries may redundantly sort
        // the same view, but never block each other on a large sort.
        let sorted = Arc::new(rel.sorted_by(attrs));
        let new_bytes = sorted.byte_size();
        {
            let mut stripe = self.lock(si);
            stripe.stats.entry(id).or_default().1 += 1;
            self.misses.fetch_add(1, Ordering::Relaxed);
            if stripe.stats.len() > 32 * self.capacity {
                stripe.stats.clear();
            }
            let key = (id, attrs.to_vec());
            if !stripe.entries.contains_key(&key) {
                // A view that alone exceeds the whole budget is served but
                // not admitted: caching it would evict every warm entry and
                // still leave the cache over budget.
                if new_bytes > self.byte_budget {
                    return sorted;
                }
                let seq = self.seq.fetch_add(1, Ordering::Relaxed);
                stripe.order.push_back((key.clone(), seq));
                stripe.entries.insert(key, Arc::clone(&sorted));
                self.entries.fetch_add(1, Ordering::Relaxed);
                self.bytes.fetch_add(new_bytes, Ordering::Relaxed);
            }
        }
        // Enforce the global bounds after admission (never holding two
        // stripe locks at once): a transient over-budget window is visible
        // only to concurrent counter polls, never to lookups.
        while self.entries.load(Ordering::Relaxed) > self.capacity
            || self.bytes.load(Ordering::Relaxed) > self.byte_budget
        {
            if !self.evict_oldest() {
                break;
            }
        }
        sorted
    }

    /// Removes the globally oldest entry (minimum admission sequence across
    /// stripe fronts). Returns false when the cache is empty. Locks one
    /// stripe at a time, so it can never deadlock with concurrent inserts.
    fn evict_oldest(&self) -> bool {
        loop {
            let mut best: Option<(usize, u64)> = None;
            for si in 0..self.stripes.len() {
                let stripe = self.lock(si);
                if let Some(&(_, seq)) = stripe.order.front() {
                    if best.is_none_or(|(_, b)| seq < b) {
                        best = Some((si, seq));
                    }
                }
            }
            let Some((si, seq)) = best else { return false };
            let mut stripe = self.lock(si);
            // The front may have changed between the scan and this lock
            // (a concurrent evictor got there first): rescan if so.
            match stripe.order.front() {
                Some(&(_, front)) if front == seq => {
                    let (key, _) = stripe.order.pop_front().expect("non-empty front");
                    if let Some(evicted) = stripe.entries.remove(&key) {
                        self.entries.fetch_sub(1, Ordering::Relaxed);
                        self.bytes.fetch_sub(evicted.byte_size(), Ordering::Relaxed);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    return true;
                }
                _ => continue,
            }
        }
    }

    /// `(hits, misses)` recorded for `rel`'s current content state. A miss
    /// is an actual sort; tests use this to assert that repeated queries
    /// sort each relation at most once.
    pub fn stats_for(&self, rel: &Relation) -> (u64, u64) {
        let id = rel.data_id();
        self.lock(self.stripe_of(id)).stats.get(&id).copied().unwrap_or((0, 0))
    }

    /// A lock-free snapshot of the global counters (monotone across
    /// [`SortCache::clear`]).
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Number of sorted views currently retained (lock-free).
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// True if no views are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes of retained views (lock-free).
    pub fn byte_size(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Drops all retained views and statistics.
    pub fn clear(&self) {
        for si in 0..self.stripes.len() {
            let mut stripe = self.lock(si);
            let (n, b) = (
                stripe.entries.len(),
                stripe.entries.values().map(|v| v.byte_size()).sum::<usize>(),
            );
            stripe.entries.clear();
            stripe.order.clear();
            stripe.stats.clear();
            self.entries.fetch_sub(n, Ordering::Relaxed);
            self.bytes.fetch_sub(b, Ordering::Relaxed);
        }
    }

    fn stripe_of(&self, id: u64) -> usize {
        // data_ids are a monotone nonce; a multiplicative mix spreads
        // consecutive ids across stripes.
        (id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % self.stripes.len()
    }

    fn lock(&self, si: usize) -> std::sync::MutexGuard<'_, Stripe> {
        self.stripes[si].lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Schema};
    use crate::value::Value;

    fn rel(rows: &[(i64, f64)]) -> Relation {
        Relation::from_rows(
            Schema::of(&[("k", AttrType::Int), ("x", AttrType::Double)]),
            rows.iter().map(|&(k, x)| vec![Value::Int(k), Value::F64(x)]),
        )
        .unwrap()
    }

    #[test]
    fn second_sort_is_a_hit() {
        let cache = SortCache::new(8);
        let r = rel(&[(2, 1.0), (1, 2.0)]);
        let a = cache.sorted_by(&r, &[0]);
        let b = cache.sorted_by(&r, &[0]);
        assert!(Arc::ptr_eq(&a, &b), "same view served twice");
        assert_eq!(cache.stats_for(&r), (1, 1));
        assert_eq!(a.int_col(0), &[1, 2]);
    }

    #[test]
    fn distinct_column_orders_coexist() {
        let cache = SortCache::new(8);
        let r = rel(&[(2, 1.0), (1, 2.0)]);
        let by_k = cache.sorted_by(&r, &[0]);
        let by_x = cache.sorted_by(&r, &[1]);
        assert_eq!(by_k.int_col(0), &[1, 2]);
        assert_eq!(by_x.f64_col(1), &[1.0, 2.0]);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn mutation_invalidates_by_identity() {
        let cache = SortCache::new(8);
        let mut r = rel(&[(2, 1.0), (1, 2.0)]);
        let before = cache.sorted_by(&r, &[0]);
        r.push_row(&[Value::Int(0), Value::F64(3.0)]).unwrap();
        let after = cache.sorted_by(&r, &[0]);
        assert_eq!(before.len(), 2, "stale view untouched");
        assert_eq!(after.int_col(0), &[0, 1, 2], "fresh state re-sorted");
        assert_eq!(cache.stats_for(&r), (0, 1), "stats follow the new state");
    }

    #[test]
    fn byte_budget_evicts_before_capacity() {
        // Each view is 2 rows × 2 cols × 8 bytes = 32 bytes; a 64-byte
        // budget holds two views even though the entry capacity is 8.
        let cache = SortCache::with_byte_budget(8, 64);
        let views =
            [rel(&[(1, 0.0), (2, 0.0)]), rel(&[(3, 0.0), (4, 0.0)]), rel(&[(5, 0.0), (6, 0.0)])];
        for v in &views {
            cache.sorted_by(v, &[0]);
        }
        assert_eq!(cache.len(), 2, "third view evicted the first by bytes");
        assert!(cache.byte_size() <= 64);
        cache.sorted_by(&views[0], &[0]);
        assert_eq!(cache.stats_for(&views[0]), (0, 2), "first view was re-sorted");
        assert_eq!(cache.stats_for(&views[2]), (0, 1));
    }

    #[test]
    fn over_budget_view_is_served_but_not_admitted() {
        // Budget 64 bytes; a 5-row view costs 80. It must neither evict
        // the warm entries nor be retained itself.
        let cache = SortCache::with_byte_budget(8, 64);
        let small = rel(&[(2, 0.0), (1, 0.0)]);
        cache.sorted_by(&small, &[0]);
        let big = rel(&[(5, 0.0), (4, 0.0), (3, 0.0), (2, 0.0), (1, 0.0)]);
        let sorted = cache.sorted_by(&big, &[0]);
        assert_eq!(sorted.int_col(0), &[1, 2, 3, 4, 5], "still sorted correctly");
        assert_eq!(cache.len(), 1, "big view not admitted");
        assert_eq!(cache.stats_for(&small), (0, 1), "warm entry survived");
        cache.sorted_by(&small, &[0]);
        assert_eq!(cache.stats_for(&small), (1, 1), "…and still hits");
        cache.sorted_by(&big, &[0]);
        assert_eq!(cache.stats_for(&big), (0, 2), "big view re-sorts every time");
    }

    #[test]
    fn global_counters_track_hits_misses_evictions() {
        let cache = SortCache::new(2);
        let (a, b, c) = (rel(&[(1, 0.0)]), rel(&[(2, 0.0)]), rel(&[(3, 0.0)]));
        cache.sorted_by(&a, &[0]); // miss
        cache.sorted_by(&a, &[0]); // hit
        cache.sorted_by(&b, &[0]); // miss
        cache.sorted_by(&c, &[0]); // miss + evicts `a`
        let k = cache.counters();
        assert_eq!((k.hits, k.misses, k.evictions), (1, 3, 1));
        assert_eq!(k.entries, 2);
        assert!(k.bytes > 0);
        cache.clear();
        let k = cache.counters();
        assert_eq!(k.hits, 1, "history survives clear");
        assert_eq!((k.entries, k.bytes), (0, 0));
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = SortCache::new(2);
        let (a, b, c) = (rel(&[(1, 0.0)]), rel(&[(2, 0.0)]), rel(&[(3, 0.0)]));
        cache.sorted_by(&a, &[0]);
        cache.sorted_by(&b, &[0]);
        cache.sorted_by(&c, &[0]); // evicts `a`
        assert_eq!(cache.len(), 2);
        cache.sorted_by(&a, &[0]);
        assert_eq!(cache.stats_for(&a), (0, 2), "evicted entry re-sorts");
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn fifo_holds_across_stripes() {
        // Entries land in different stripes (distinct data_ids), yet the
        // capacity bound still evicts in global admission order.
        let cache = SortCache::with_stripes(3, DEFAULT_BYTE_BUDGET, 4);
        let views: Vec<Relation> = (0..5).map(|k| rel(&[(k, 0.0)])).collect();
        for v in &views {
            cache.sorted_by(v, &[0]);
        }
        assert_eq!(cache.len(), 3);
        // Oldest two were evicted; newest three still hit.
        for v in &views[2..] {
            cache.sorted_by(v, &[0]);
            assert_eq!(cache.stats_for(v), (1, 1), "recent view retained");
        }
        for v in &views[..2] {
            cache.sorted_by(v, &[0]);
            assert_eq!(cache.stats_for(v), (0, 2), "oldest views evicted first");
        }
    }

    #[test]
    fn concurrent_lookups_share_one_cache_consistently() {
        let cache = std::sync::Arc::new(SortCache::with_stripes(64, DEFAULT_BYTE_BUDGET, 4));
        let views: std::sync::Arc<Vec<Relation>> =
            std::sync::Arc::new((0..16).map(|k| rel(&[(k, 0.0), (k - 1, 1.0)])).collect());
        let mut handles = Vec::new();
        for t in 0..4 {
            let (cache, views) = (std::sync::Arc::clone(&cache), std::sync::Arc::clone(&views));
            handles.push(std::thread::spawn(move || {
                for round in 0..50 {
                    let v = &views[(t * 7 + round) % views.len()];
                    let sorted = cache.sorted_by(v, &[0]);
                    assert_eq!(sorted.len(), v.len());
                    assert!(sorted.int_col(0).windows(2).all(|w| w[0] <= w[1]));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let k = cache.counters();
        assert_eq!(k.hits + k.misses, 200, "every lookup counted exactly once");
        assert!(k.entries <= 16 + k.evictions as usize);
    }
}
