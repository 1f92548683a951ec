//! Cross-batch memoization of materialized subtree views (the LMFAO
//! iterative-workload optimisation).
//!
//! The paper's headline workloads are *iterative*: a decision-tree trainer
//! issues one aggregate batch per tree node over the **same** join tree,
//! differing only in split filters; BGD retrains and model selection
//! re-run the same covariance batch verbatim. Re-materializing every view
//! bottom-up on every `Engine::run` repays the full scan bill each time,
//! even though most subtree views are byte-identical across batches.
//!
//! A [`ViewCache`] memoizes each node's computed `Vec<ViewData>` keyed on
//! the node's *subtree signature*
//! ([`Plan::subtree_signatures`](crate::plan::Plan)) — a canonical
//! serialization of the subtree's plan (slot factors/filters, group
//! wiring, join shape) plus the [`fdb_data::Relation::data_id`] of every
//! relation in the subtree:
//!
//! * **invalidation is automatic**, exactly as in
//!   [`fdb_data::SortCache`]: every relation mutation refreshes its
//!   `data_id`, so a stale entry is simply never keyed again and ages out
//!   of the FIFO bound;
//! * **residual-filter reuse** falls out of the signature: a batch that
//!   differs from a cached one only by filters on attributes owned
//!   *outside* a subtree serializes that subtree identically, so its
//!   views are served from cache and only the nodes on the path from a
//!   filtered relation to the root are rescanned;
//! * **thread counts share subtrees**: only the root's key carries the
//!   morsel count, so a dimension subtree materialized at one thread
//!   count or morsel size is a hit at every other and in every later run.
//!
//! The cache is process-global ([`ViewCache::global`]) and byte-bounded:
//! its effective ceiling is the **largest**
//! [`crate::EngineConfig::view_cache_bytes`] any engine has requested in
//! the process (so a small-budget engine cannot churn a larger-budget
//! engine's warm entries; `0` bypasses the cache entirely). Keys are full
//! canonical strings — no hash truncation — so a hit can never serve
//! views of a different plan or content state.
//!
//! # Striping
//!
//! Like [`fdb_data::SortCache`], the table is split into
//! [`fdb_data::sortcache::DEFAULT_STRIPES`] shards, each behind its own
//! `Mutex`: entries are striped by signature hash, per-relation
//! attributions by `data_id` hash, so concurrent sessions hitting warm
//! views of different subtrees never serialize on one global lock. All
//! counters (and [`ViewCache::stats`]) are lock-free atomics; the byte
//! ceiling and FIFO eviction order stay **global** via per-entry admission
//! sequence numbers, preserving the single-lock cache's observable
//! semantics.

use crate::plan::ViewData;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default ceiling on the total approximate bytes of retained views
/// ([`crate::EngineConfig::view_cache_bytes`]).
pub const DEFAULT_VIEW_CACHE_BYTES: usize = 256 << 20;

/// A lock-free snapshot of the cache's counters (monotone across
/// [`ViewCache::clear`], which resets contents but not history — deltas
/// around a workload stay meaningful even if it clears the cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewCacheStats {
    /// Node-level lookups served from cache.
    pub hits: u64,
    /// Node-level lookups that had to materialize.
    pub misses: u64,
    /// Individual views served from cache (a node entry holds all views
    /// of that node, so one hit can reuse several views).
    pub views_reused: u64,
    /// Individual views materialized by a scan.
    pub views_rescanned: u64,
    /// Individual views kept warm by **in-place delta maintenance**: a
    /// relation mutated, but instead of the entry aging out (invalidate
    /// and rescan), the maintenance path updated the ring-additive
    /// payloads and re-admitted the views under the fresh content id.
    pub views_maintained: u64,
    /// Entries dropped to respect a byte budget.
    pub evictions: u64,
    /// Entries dropped by [`ViewCache::invalidate_id`] — views computed
    /// from a content state that was rolled back and will never be keyed
    /// again (the maintenance wrapper's error-path hygiene).
    pub invalidated: u64,
    /// Node entries currently retained.
    pub entries: usize,
    /// Approximate bytes currently retained.
    pub bytes: usize,
}

#[derive(Default)]
struct Stripe {
    /// `signature -> (views, charged bytes)`.
    entries: HashMap<Box<str>, (Arc<Vec<ViewData>>, usize)>,
    /// Admission order within this stripe with each entry's **global**
    /// admission sequence number; fronts across stripes locate the
    /// globally oldest entry, so eviction stays FIFO across the split.
    order: VecDeque<(Box<str>, u64)>,
    /// Per node-relation `(views reused, views rescanned)`, keyed by the
    /// node relation's `data_id` — lets tests attribute reuse to one
    /// dataset even when other cache users run concurrently (the same
    /// discipline as [`fdb_data::SortCache::stats_for`]). Striped by id
    /// hash (independent of the signature striping). Bounded: cleared
    /// wholesale when it far outgrows the entry map.
    per_id: HashMap<u64, (u64, u64)>,
}

/// A bounded memo table for materialized per-node view data.
pub struct ViewCache {
    stripes: Vec<Mutex<Stripe>>,
    /// High-water mark of the budgets callers have requested: the cache's
    /// effective ceiling. Without it, one engine configured with a small
    /// `view_cache_bytes` would evict the *shared* global cache down to
    /// its own budget on every insert, destroying other engines' warm
    /// entries; with it, a smaller budget only limits what that engine
    /// admits, never what others retain.
    budget_hwm: AtomicUsize,
    /// Global admission sequence: orders entries across stripes for FIFO.
    seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    views_reused: AtomicU64,
    views_rescanned: AtomicU64,
    views_maintained: AtomicU64,
    evictions: AtomicU64,
    invalidated: AtomicU64,
    entries: AtomicUsize,
    bytes: AtomicUsize,
}

impl Default for ViewCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ViewCache {
    /// An empty cache. The byte bound is supplied per insertion
    /// ([`crate::EngineConfig::view_cache_bytes`]), so one global cache
    /// serves engines with different budgets.
    pub fn new() -> Self {
        Self::with_stripes(fdb_data::sortcache::DEFAULT_STRIPES)
    }

    /// An empty cache with an explicit stripe count (the race tests; the
    /// global cache uses [`fdb_data::sortcache::DEFAULT_STRIPES`]).
    pub fn with_stripes(nstripes: usize) -> Self {
        Self {
            stripes: (0..nstripes.max(1)).map(|_| Mutex::new(Stripe::default())).collect(),
            budget_hwm: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            views_reused: AtomicU64::new(0),
            views_rescanned: AtomicU64::new(0),
            views_maintained: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            entries: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
        }
    }

    /// The process-wide cache used by the LMFAO execution path.
    pub fn global() -> &'static ViewCache {
        static GLOBAL: OnceLock<ViewCache> = OnceLock::new();
        GLOBAL.get_or_init(ViewCache::new)
    }

    /// The cached views under `key`, recording a hit or miss. `head_id` is
    /// the node relation's `data_id` (per-dataset attribution).
    pub(crate) fn get(&self, key: &str, head_id: u64) -> Option<Arc<Vec<ViewData>>> {
        self.get_filtered(key, head_id, |_| true)
    }

    /// [`ViewCache::get`] with an adoption predicate evaluated **before**
    /// the counters move: a present entry the caller cannot use (e.g. the
    /// maintenance layer rejecting views whose dense representations
    /// differ from its plan's) is counted as a miss, not as reuse — so
    /// `views_reused` never over-reports entries that were looked at and
    /// then recomputed anyway.
    pub(crate) fn get_filtered(
        &self,
        key: &str,
        head_id: u64,
        adopt: impl FnOnce(&[ViewData]) -> bool,
    ) -> Option<Arc<Vec<ViewData>>> {
        let hit = {
            let stripe = self.lock(Self::stripe_of_key(key, self.stripes.len()));
            match stripe.entries.get(key) {
                Some((views, _)) if adopt(views) => Some(Arc::clone(views)),
                _ => None,
            }
        };
        match hit {
            Some(views) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.views_reused.fetch_add(views.len() as u64, Ordering::Relaxed);
                // Attribution lives in the id-hashed stripe; the entry
                // lock is already released, so no two locks are ever held.
                self.lock(self.stripe_of_id(head_id)).per_id.entry(head_id).or_default().0 +=
                    views.len() as u64;
                Some(views)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Admits freshly materialized views under `key`, evicting FIFO until
    /// the retained total fits the cache's effective ceiling — the
    /// high-water mark of all requested budgets, so a small-budget engine
    /// never churns the warm entries of larger-budget ones. Always
    /// records the scan (`views_rescanned`); an entry that alone exceeds
    /// the whole ceiling is not admitted (admitting it would evict every
    /// warm entry and still leave the cache over budget).
    ///
    /// An entry is charged its view bytes **plus its key** (canonical
    /// subtree signatures can run to kilobytes and are stored twice) and
    /// a fixed overhead — so even entries whose views are empty (empty
    /// joins, fully filtered batches) have positive cost and the budget
    /// bounds the entry count, not just the payload bytes.
    pub(crate) fn insert(
        &self,
        key: &str,
        head_id: u64,
        views: Arc<Vec<ViewData>>,
        byte_budget: usize,
    ) {
        self.views_rescanned.fetch_add(views.len() as u64, Ordering::Relaxed);
        self.bump_per_id(head_id, false, views.len() as u64);
        self.admit(key, views, byte_budget);
    }

    /// Admits views that were kept current by **in-place delta
    /// maintenance** rather than a scan: counted as `views_maintained`
    /// (and as reuse in the per-relation attribution — the relation was
    /// *not* rescanned), then retained under the same budget discipline
    /// as [`ViewCache::insert`]. The key carries the relation's
    /// post-delta content id, so later cold runs over the mutated
    /// database hit these views instead of rescanning the subtree.
    pub(crate) fn insert_maintained(
        &self,
        key: &str,
        head_id: u64,
        views: Arc<Vec<ViewData>>,
        byte_budget: usize,
    ) {
        self.views_maintained.fetch_add(views.len() as u64, Ordering::Relaxed);
        self.bump_per_id(head_id, true, views.len() as u64);
        self.admit(key, views, byte_budget);
    }

    fn bump_per_id(&self, head_id: u64, reused: bool, n: u64) {
        let mut stripe = self.lock(self.stripe_of_id(head_id));
        if stripe.per_id.len() > 32 * 1024 {
            stripe.per_id.clear();
        }
        let slot = stripe.per_id.entry(head_id).or_default();
        if reused {
            slot.0 += n;
        } else {
            slot.1 += n;
        }
    }

    /// Shared storage path of [`ViewCache::insert`] /
    /// [`ViewCache::insert_maintained`]: budget high-water update, global
    /// FIFO eviction, oversize rejection. Holds at most one stripe lock at
    /// a time (admission into the key's stripe, then eviction scanning),
    /// so a transient over-budget window is visible only to concurrent
    /// counter polls, never to lookups.
    fn admit(&self, key: &str, views: Arc<Vec<ViewData>>, byte_budget: usize) {
        if fdb_data::fault::trip("cache-admit") {
            // Injected admission failure: the cache is transparent, so a
            // refused insert only costs a future rescan — results stay
            // correct, which is exactly what the chaos suite asserts.
            return;
        }
        if fdb_data::fault::trip("cache-evict") {
            // Injected eviction pressure: age out the oldest entry.
            self.evict_oldest();
        }
        let new_bytes: usize =
            views.iter().map(ViewData::byte_size).sum::<usize>() + 2 * key.len() + 96;
        let budget = self.budget_hwm.fetch_max(byte_budget, Ordering::Relaxed).max(byte_budget);
        if new_bytes > budget {
            return;
        }
        {
            let mut stripe = self.lock(Self::stripe_of_key(key, self.stripes.len()));
            if stripe.entries.contains_key(key) {
                return;
            }
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            stripe.order.push_back((key.into(), seq));
            stripe.entries.insert(key.into(), (views, new_bytes));
            self.entries.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(new_bytes, Ordering::Relaxed);
        }
        while self.bytes.load(Ordering::Relaxed) > budget
            && self.entries.load(Ordering::Relaxed) > 1
        {
            if !self.evict_oldest() {
                break;
            }
        }
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
            match stripe.order.front() {
                Some(&(_, front)) if front == seq => {
                    let (key, _) = stripe.order.pop_front().expect("non-empty front");
                    if let Some((_, b)) = stripe.entries.remove(&key) {
                        self.entries.fetch_sub(1, Ordering::Relaxed);
                        self.bytes.fetch_sub(b, Ordering::Relaxed);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    return true;
                }
                _ => continue, // raced with a concurrent evictor; rescan
            }
        }
    }

    /// A lock-free snapshot of the counters.
    pub fn stats(&self) -> ViewCacheStats {
        ViewCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            views_reused: self.views_reused.load(Ordering::Relaxed),
            views_rescanned: self.views_rescanned.load(Ordering::Relaxed),
            views_maintained: self.views_maintained.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// `(views reused, views rescanned)` attributed to nodes whose
    /// relation currently has content id `data_id`. A rescan is an actual
    /// shared scan of that relation; tests use this to assert that
    /// repeated trainings rescan nothing, immune to concurrent cache
    /// users (distinct datasets have distinct content ids).
    pub fn stats_for_id(&self, data_id: u64) -> (u64, u64) {
        self.lock(self.stripe_of_id(data_id)).per_id.get(&data_id).copied().unwrap_or((0, 0))
    }

    /// Drops every entry whose key embeds the content id `data_id` —
    /// **anywhere** in the signature, not just at the head node: subtree
    /// signatures render every relation as `r{data_id};`, so an ancestor
    /// view computed over a since-rolled-back owner state matches too.
    ///
    /// This is the error-path hygiene of the maintenance wrapper: a
    /// failed `apply_delta` rolls the database back to the pre-delta
    /// epoch, but views the failing maintenance already admitted under
    /// the post-delta id would otherwise linger as dead weight (never
    /// *served* — the nonce is never reused — but holding budget until
    /// FIFO ages them out). In the serving path this runs strictly
    /// **before** the failed epoch would have published, so no reader can
    /// pin a snapshot whose caches still carry the rolled-back state.
    /// Returns the number of entries dropped.
    pub fn invalidate_id(&self, data_id: u64) -> usize {
        let needle = format!("r{data_id};");
        let mut total = 0;
        for si in 0..self.stripes.len() {
            let mut stripe = self.lock(si);
            let doomed: Vec<Box<str>> =
                stripe.entries.keys().filter(|k| k.contains(&*needle)).cloned().collect();
            for k in &doomed {
                if let Some((_, b)) = stripe.entries.remove(k) {
                    self.entries.fetch_sub(1, Ordering::Relaxed);
                    self.bytes.fetch_sub(b, Ordering::Relaxed);
                    self.invalidated.fetch_add(1, Ordering::Relaxed);
                }
            }
            if !doomed.is_empty() {
                let Stripe { entries, order, .. } = &mut *stripe;
                order.retain(|(k, _)| entries.contains_key(k));
                total += doomed.len();
            }
        }
        total
    }

    /// Drops all retained views and per-relation attributions. The global
    /// counters stay monotone so surrounding deltas remain meaningful.
    pub fn clear(&self) {
        for si in 0..self.stripes.len() {
            let mut stripe = self.lock(si);
            let (n, b) =
                (stripe.entries.len(), stripe.entries.values().map(|(_, b)| *b).sum::<usize>());
            stripe.entries.clear();
            stripe.order.clear();
            stripe.per_id.clear();
            self.entries.fetch_sub(n, Ordering::Relaxed);
            self.bytes.fetch_sub(b, Ordering::Relaxed);
        }
    }

    fn stripe_of_key(key: &str, nstripes: usize) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() >> 32) as usize % nstripes
    }

    fn stripe_of_id(&self, id: u64) -> usize {
        (id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % self.stripes.len()
    }

    fn lock(&self, si: usize) -> std::sync::MutexGuard<'_, Stripe> {
        self.stripes[si].lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::KeySpace;
    use crate::plan::GroupSpec;

    fn views(val: f64) -> Arc<Vec<ViewData>> {
        let spec = GroupSpec { slots: 1, space: KeySpace::new(&[(0, 3)], 16) };
        let mut vd = ViewData::new(None);
        vd.entry_mut(&[], &spec).payload_mut(&[1])[0] = val;
        Arc::new(vec![vd])
    }

    #[test]
    fn hit_after_insert_and_stats() {
        let c = ViewCache::new();
        assert!(c.get("k1", 7).is_none());
        c.insert("k1", 7, views(1.0), 1 << 20);
        let hit = c.get("k1", 7).expect("cached");
        assert_eq!(hit.len(), 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!((s.views_reused, s.views_rescanned), (1, 1));
        assert_eq!(s.entries, 1);
        assert!(s.bytes > 0);
        assert_eq!(c.stats_for_id(7), (1, 1));
        assert_eq!(c.stats_for_id(8), (0, 0));
    }

    #[test]
    fn byte_budget_evicts_fifo_and_rejects_oversize() {
        // Calibrate the per-entry cost (views + key + overhead) with a
        // throwaway cache; all keys below share the same length.
        let probe = ViewCache::new();
        probe.insert("a", 1, views(1.0), 1 << 20);
        let unit = probe.stats().bytes;
        assert!(unit > 96, "key and overhead are charged, not just view bytes");
        // Budget for exactly two entries: the third evicts the first.
        let c = ViewCache::new();
        let budget = 2 * unit;
        c.insert("a", 1, views(1.0), budget);
        c.insert("b", 1, views(2.0), budget);
        c.insert("c", 1, views(3.0), budget);
        assert!(c.get("a", 1).is_none(), "oldest evicted");
        assert!(c.get("b", 1).is_some() && c.get("c", 1).is_some());
        assert_eq!(c.stats().evictions, 1);
        // A later *smaller* budget must not shrink the shared cache below
        // the high-water ceiling other engines established: inserting
        // with budget 1 still retains two entries.
        c.insert("d", 1, views(4.0), 1);
        assert_eq!(c.stats().entries, 2, "small-budget insert cannot drain the cache");
        assert!(c.get("d", 1).is_some(), "…and is admitted under the ceiling");
        // An entry over the whole ceiling is recorded but not admitted
        // (the long key alone pushes it past the budget).
        let small = ViewCache::new();
        small.insert("warm", 1, views(1.0), unit + 16);
        small.insert("huge-key-that-does-not-fit-the-ceiling-at-all", 1, views(2.0), 1);
        assert!(small.get("huge-key-that-does-not-fit-the-ceiling-at-all", 1).is_none());
        assert_eq!(small.stats().entries, 1, "warm entry survived the oversize insert");
    }

    #[test]
    fn invalidate_id_drops_embedding_entries_and_keeps_accounting() {
        let c = ViewCache::new();
        // Keys in signature syntax: node `r7` alone, an ancestor embedding
        // `r7` in a child signature, and an unrelated `r70` (whose id must
        // NOT match the `r7;` needle — the `;` terminator guards that).
        c.insert("r7;d1000;k[0];", 7, views(1.0), 1 << 20);
        c.insert("r8;d1000;k[0];C[1][r7;d1000;k[0];]", 8, views(2.0), 1 << 20);
        c.insert("r70;d1000;k[0];", 70, views(3.0), 1 << 20);
        let before = c.stats();
        assert_eq!(before.entries, 3);
        assert_eq!(c.invalidate_id(7), 2, "head entry and embedding ancestor both dropped");
        let after = c.stats();
        assert_eq!(after.entries, 1);
        assert_eq!(after.invalidated, 2);
        assert!(c.get("r70;d1000;k[0];", 70).is_some(), "unrelated id survives");
        assert!(c.get("r7;d1000;k[0];", 7).is_none());
        // Bytes and FIFO order stay consistent: admitting more entries
        // still works and evicts cleanly.
        assert!(after.bytes < before.bytes);
        c.insert("r9;d1000;k[0];", 9, views(4.0), 1 << 20);
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.invalidate_id(999), 0, "unknown id is a no-op");
    }

    #[test]
    fn clear_drops_entries_keeps_counters() {
        let c = ViewCache::new();
        c.insert("k", 3, views(1.0), 1 << 20);
        c.get("k", 3);
        c.clear();
        assert!(c.get("k", 3).is_none());
        let s = c.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.hits, 1, "history survives clear");
        assert_eq!(c.stats_for_id(3), (0, 0), "attributions reset with contents");
    }

    #[test]
    fn fifo_eviction_holds_across_stripes() {
        // Keys hash to different stripes, yet the budget still evicts in
        // global admission order (oldest first), never by stripe accident.
        let probe = ViewCache::with_stripes(4);
        probe.insert("k0", 1, views(1.0), 1 << 20);
        let unit = probe.stats().bytes;
        let c = ViewCache::with_stripes(4);
        let budget = 3 * unit;
        for i in 0..5 {
            c.insert(&format!("k{i}"), 1, views(i as f64), budget);
        }
        assert_eq!(c.stats().entries, 3);
        assert_eq!(c.stats().evictions, 2);
        assert!(c.get("k0", 1).is_none() && c.get("k1", 1).is_none(), "oldest two evicted");
        for i in 2..5 {
            assert!(c.get(&format!("k{i}"), 1).is_some(), "newest three retained");
        }
    }

    #[test]
    fn concurrent_sessions_do_not_lose_counts() {
        let c = std::sync::Arc::new(ViewCache::with_stripes(4));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for round in 0..50u64 {
                    let key = format!("t{t}-r{}", round % 8);
                    if c.get(&key, t).is_none() {
                        c.insert(&key, t, views(round as f64), 1 << 20);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 200, "every lookup counted exactly once");
        assert_eq!(s.entries, 32, "8 keys per thread, all admitted");
    }
}
