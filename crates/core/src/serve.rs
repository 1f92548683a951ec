//! Concurrent serving: snapshot reads under a live delta stream.
//!
//! The paper's end state is a system that answers aggregate/ML workloads
//! *continuously* while the underlying relational data changes (the
//! static+dynamic unification of Kara, Nikolic, Olteanu, Zhang — F-IVM
//! serving trained models over a stream of updates). The execution stack
//! below this module is already epoch-transactional per delta
//! ([`MaintainableEngine::apply_delta`] commits or rolls back exactly one
//! [`Database::epoch`]); what it lacked was an ownership model letting
//! **many readers and one writer make progress at once**.
//!
//! [`ServingEngine`] is that front door:
//!
//! * **Readers never block.** [`ServingEngine::query`] pins the currently
//!   published [`EpochDb`] — an immutable [`Database::snapshot`], O(#relations)
//!   to take because relations are `Arc`-shared copy-on-write — and
//!   evaluates against it with `&self`. The published pointer lives in an
//!   `RwLock<Arc<EpochDb>>` whose write lock is held only for the pointer
//!   exchange (an `ArcSwap` without the dependency), so a reader's pin is
//!   two refcount bumps, never a wait on maintenance.
//! * **One writer, transactional.** [`ServingEngine::apply_delta`] funnels
//!   every delta through the maintained [`MaintState`] under a writer
//!   mutex: validation, commit, incremental view maintenance, and
//!   rollback-on-failure are exactly the guarantees of
//!   [`MaintainableEngine::apply_delta`].
//! * **Publication is ordered after maintenance.** The new epoch becomes
//!   visible to readers only after the engine's maintenance (including
//!   its [`ViewCache`](crate::ViewCache) re-admissions under post-delta
//!   content ids) succeeded; a failed delta rolls back, invalidates the
//!   rolled-back ids, and **never publishes** — so no reader can ever pin
//!   an epoch whose caches carry state from a failed or half-applied
//!   delta.
//!
//! **Why stale cache hits are impossible across epochs.** Both global
//! caches key on [`fdb_data::Relation::data_id`], a nonce every mutation
//! refreshes and rollback restores-without-reuse. A reader pinned at
//! epoch *e* holds `Arc`s of exactly the relations (and therefore ids) of
//! *e*; views admitted by the writer for epoch *e+1* are keyed by ids
//! that exist in no relation of *e*. The striped caches (see
//! [`fdb_data::SortCache`]) make those concurrent hits scale; the id
//! discipline makes them *correct*.

use crate::ir::{AggQuery, BatchResult};
use crate::maintain::{MaintState, MaintainableEngine};
use fdb_data::{DataError, Database, Delta};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// An immutable, consistent database snapshot pinned at one epoch.
///
/// Cheap to produce ([`Database::snapshot`] clones an `Arc` per relation)
/// and safe to read from any number of threads; the writer's next epoch
/// copy-on-writes mutated relations, never this one.
#[derive(Clone)]
pub struct EpochDb {
    db: Database,
}

impl EpochDb {
    fn new(db: Database) -> Self {
        Self { db }
    }

    /// The epoch this snapshot pins ([`Database::epoch`] at snapshot time).
    pub fn epoch(&self) -> u64 {
        self.db.epoch()
    }

    /// The pinned database.
    pub fn database(&self) -> &Database {
        &self.db
    }
}

/// A lock-free snapshot of a [`ServingEngine`]'s activity counters.
///
/// The front-door fields (everything from [`ServingStats::submitted`]
/// down) are populated by [`FrontDoor::stats`](crate::frontdoor::FrontDoor::stats)
/// and stay zero when the engine is driven directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Queries evaluated against pinned snapshots.
    pub queries: u64,
    /// Deltas committed and published.
    pub deltas_applied: u64,
    /// Deltas rejected (validation or maintenance failure → rolled back,
    /// never published).
    pub deltas_rejected: u64,
    /// The currently published epoch.
    pub epoch: u64,
    /// Deltas accepted into the front door's bounded queue.
    pub submitted: u64,
    /// Current queue depth (deltas admitted but not yet drained).
    pub queued: u64,
    /// Deltas merged into a predecessor by group-commit coalescing (so
    /// `submitted - coalesced` bounds the number of published epochs).
    pub coalesced: u64,
    /// Merged batches committed and published (one epoch each).
    pub batches_committed: u64,
    /// Merged batches dropped after rollback (permanent error, or
    /// transient retries exhausted with the degraded path failing too).
    pub batches_failed: u64,
    /// Submits refused with [`DataError::Overloaded`] (full queue under
    /// the `Reject` policy, or an injected `queue-admit` fault).
    pub rejected: u64,
    /// Submits that hit their deadline ([`DataError::Timeout`]) while
    /// blocked on a full queue.
    pub timed_out: u64,
    /// Queued deltas dropped unapplied by the `ShedOldest` policy.
    pub shed: u64,
    /// Retry attempts after transient batch failures.
    pub retries: u64,
    /// Circuit-breaker trips (degradations to recompute mode).
    pub breaker_trips: u64,
    /// Half-open probes (attempts to re-prepare the incremental state).
    pub breaker_probes: u64,
    /// Successful recoveries (probe re-prepared and the next batch
    /// committed incrementally).
    pub breaker_recoveries: u64,
}

/// The concurrent front door: `N` reader threads share one
/// `ServingEngine` by `&self` while one writer streams deltas through it.
///
/// ```
/// use fdb_core::serve::ServingEngine;
/// # use fdb_core::{AggBatch, AggQuery, Aggregate, LmfaoEngine};
/// # use fdb_data::{AttrType, Database, Delta, Relation, Schema, Value};
/// # let mut db = Database::new();
/// # let mut r = Relation::new(Schema::of(&[("k", AttrType::Int), ("x", AttrType::Double)]));
/// # r.push_row(&[Value::Int(1), Value::F64(2.0)]).unwrap();
/// # db.add("R", r);
/// # let mut batch = AggBatch::new();
/// # batch.push(Aggregate::sum("x"));
/// # let q = AggQuery::new(&["R"], batch);
/// let serving = ServingEngine::new(LmfaoEngine::new(), &db, &q).unwrap();
/// let e0 = serving.epoch();
/// std::thread::scope(|s| {
///     s.spawn(|| {
///         let (epoch, result) = serving.query().unwrap(); // reader: pins a snapshot
///         assert!(epoch <= serving.epoch());
///         // before or after the writer's epoch, never in between
///         assert_eq!(result.scalar(0), if epoch == e0 { 2.0 } else { 5.0 });
///     });
///     // writer: commits and publishes the next epoch
///     serving.apply_delta(&Delta::insert("R", vec![Value::Int(2), Value::F64(3.0)])).unwrap();
/// });
/// ```
pub struct ServingEngine<E: MaintainableEngine> {
    engine: E,
    q: AggQuery,
    /// The single-writer maintained state (its own database copy plus the
    /// engine's incremental structures). Guarded by a mutex: deltas
    /// serialize here, readers never touch it.
    writer: Mutex<MaintState>,
    /// The published snapshot. The write lock is held only for the
    /// pointer swap in [`ServingEngine::publish`], so readers pinning via
    /// the read lock wait at most one pointer exchange, never a
    /// maintenance pass.
    published: RwLock<Arc<EpochDb>>,
    queries: AtomicU64,
    deltas_applied: AtomicU64,
    deltas_rejected: AtomicU64,
}

impl<E: MaintainableEngine> ServingEngine<E> {
    /// Prepares `q` over `db` through `engine` (paying the one-shot
    /// evaluation cost once) and publishes the initial epoch.
    pub fn new(engine: E, db: &Database, q: &AggQuery) -> Result<Self, DataError> {
        let st = engine.prepare(db, q)?;
        let first = Arc::new(EpochDb::new(st.database().snapshot()));
        Ok(Self {
            engine,
            q: q.clone(),
            writer: Mutex::new(st),
            published: RwLock::new(first),
            queries: AtomicU64::new(0),
            deltas_applied: AtomicU64::new(0),
            deltas_rejected: AtomicU64::new(0),
        })
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The served query.
    pub fn query_spec(&self) -> &AggQuery {
        &self.q
    }

    /// Pins the currently published snapshot: two refcount bumps under a
    /// read lock. The returned [`EpochDb`] stays valid (and immutable)
    /// for as long as the caller holds it, regardless of how many epochs
    /// the writer publishes meanwhile.
    pub fn snapshot(&self) -> Arc<EpochDb> {
        Arc::clone(&self.read_published())
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.read_published().epoch()
    }

    /// Evaluates the served query against the currently published
    /// snapshot and returns `(epoch, result)` — the epoch identifies
    /// exactly which database state the result reflects, so callers can
    /// correlate answers from concurrent readers.
    pub fn query(&self) -> Result<(u64, BatchResult), DataError> {
        let snap = self.snapshot();
        Ok((snap.epoch(), self.query_at(&snap)?))
    }

    /// Evaluates the served query against an explicitly pinned snapshot —
    /// the stable-read primitive: a session that must see one consistent
    /// epoch across several queries pins once and passes it here.
    pub fn query_at(&self, snap: &EpochDb) -> Result<BatchResult, DataError> {
        let r = self.engine.run(snap.database(), &self.q)?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        Ok(r)
    }

    /// Evaluates an ad-hoc query (not the prepared one) against a pinned
    /// snapshot, through the same engine.
    pub fn query_adhoc(&self, snap: &EpochDb, q: &AggQuery) -> Result<BatchResult, DataError> {
        let r = self.engine.run(snap.database(), q)?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        Ok(r)
    }

    /// Applies one delta through the transactional maintenance path and —
    /// only on success — publishes the new epoch. Concurrent callers
    /// serialize on the writer lock; readers are unaffected either way:
    ///
    /// * `Ok`: the returned result reflects the new epoch, which readers
    ///   pin from this point on (the maintained views the engine
    ///   re-admitted to the global cache are keyed by post-delta ids, so
    ///   the *next* cold read at the new epoch hits them).
    /// * `Err`: the maintained state was rolled back to the pre-delta
    ///   epoch and cache entries under rolled-back ids invalidated by the
    ///   [`MaintainableEngine::apply_delta`] wrapper — and since nothing
    ///   publishes, readers keep pinning the last good epoch. The
    ///   invalidation happens strictly before this method returns, hence
    ///   strictly before any later successful delta publishes.
    pub fn apply_delta(&self, delta: &Delta) -> Result<BatchResult, DataError> {
        let mut st = self.writer_lock();
        match self.engine.apply_delta(&mut st, delta) {
            Ok(r) => {
                self.publish(st.database().snapshot());
                self.deltas_applied.fetch_add(1, Ordering::Relaxed);
                Ok(r)
            }
            Err(e) => {
                self.deltas_rejected.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// The writer's current maintained result, without applying a delta
    /// (serialized with [`ServingEngine::apply_delta`] on the writer
    /// lock).
    pub fn maintained(&self) -> Result<BatchResult, DataError> {
        let mut st = self.writer_lock();
        self.engine.eval(&mut st)
    }

    /// Swaps the writer's maintained state for a recompute-per-delta one
    /// over the same maintained database — the circuit breaker's
    /// degradation: subsequent deltas skip the (failing) incremental
    /// machinery entirely and recompute via [`Engine::run`](crate::Engine::run),
    /// still transactionally and still publishing one epoch per success.
    pub fn degrade_to_recompute(&self) {
        let mut st = self.writer_lock();
        let (db, q) = (st.database().clone(), st.query().clone());
        *st = MaintState::recompute(db, q);
    }

    /// Attempts to re-prepare the full incremental state from the current
    /// maintained database — the breaker's half-open probe (and the same
    /// re-prepare path the transactional wrapper uses after a rollback).
    /// On failure the existing state is kept untouched.
    pub fn promote(&self) -> Result<(), DataError> {
        let mut st = self.writer_lock();
        let fresh = self.engine.prepare(st.database(), &self.q)?;
        *st = fresh;
        Ok(())
    }

    /// True while the writer state is the degraded recompute-per-delta
    /// one (see [`ServingEngine::degrade_to_recompute`]). An engine
    /// without an incremental path — flat, or dispatch on a join it
    /// serves flat — recomputes from the start, so this reads true.
    pub fn is_degraded(&self) -> bool {
        self.writer_lock().is_recompute()
    }

    /// Activity counters (lock-free). The front-door fields stay zero
    /// here; [`FrontDoor::stats`](crate::frontdoor::FrontDoor::stats)
    /// fills them in.
    pub fn stats(&self) -> ServingStats {
        ServingStats {
            queries: self.queries.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            deltas_rejected: self.deltas_rejected.load(Ordering::Relaxed),
            epoch: self.epoch(),
            ..ServingStats::default()
        }
    }

    /// Locks the writer state, recovering from poisoning instead of
    /// panicking. A poisoned writer mutex means a panic escaped while the
    /// maintained state was held mutably — e.g. an engine's `eval`
    /// panicking outside the contained maintenance path — so the
    /// incremental structures may be half-updated. Trusting them would
    /// risk serving wrong results, so this degrades exactly like the
    /// transactional wrapper does after a failed re-prepare: rebuild the
    /// state from its own (epoch-consistent) database via `prepare`,
    /// falling back to recompute-per-delta if even that fails, then clear
    /// the poison flag. The published snapshot is untouched either way —
    /// readers never observe the recovery.
    fn writer_lock(&self) -> MutexGuard<'_, MaintState> {
        match self.writer.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                let (db, q) = (guard.database().clone(), guard.query().clone());
                *guard = match self.engine.prepare(&db, &q) {
                    Ok(fresh) => fresh,
                    Err(_) => MaintState::recompute(db, q),
                };
                self.writer.clear_poison();
                guard
            }
        }
    }

    /// Atomically replaces the published snapshot. Called only with the
    /// writer lock held and only after maintenance succeeded, which is
    /// the publication-ordering invariant: every cache admission and
    /// invalidation of the delta happens-before the epoch becomes
    /// pinnable.
    fn publish(&self, db: Database) {
        let next = Arc::new(EpochDb::new(db));
        *self.published.write().unwrap_or_else(|p| p.into_inner()) = next;
    }

    fn read_published(&self) -> Arc<EpochDb> {
        Arc::clone(&self.published.read().unwrap_or_else(|p| p.into_inner()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Engine, FlatEngine, LmfaoEngine};
    use crate::batch::{AggBatch, Aggregate};
    use crate::parallel::EngineConfig;
    use fdb_data::{AttrType, Relation, Schema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::new(Schema::of(&[("k", AttrType::Int), ("x", AttrType::Double)]));
        for (k, x) in [(1, 1.0), (2, 2.0), (3, 3.0)] {
            r.push_row(&[Value::Int(k), Value::F64(x)]).unwrap();
        }
        db.add("R", r);
        db
    }

    fn sum_query() -> AggQuery {
        let mut batch = AggBatch::new();
        batch.push(Aggregate::sum("x"));
        batch.push(Aggregate::count());
        AggQuery::new(&["R"], batch)
    }

    #[test]
    fn published_epoch_advances_only_on_success() {
        let serving = ServingEngine::new(FlatEngine, &db(), &sum_query()).unwrap();
        let e0 = serving.epoch();
        let (qe, r) = serving.query().unwrap();
        assert_eq!(qe, e0);
        assert_eq!(r.scalar(0), 6.0);

        serving.apply_delta(&Delta::insert("R", vec![Value::Int(4), Value::F64(4.0)])).unwrap();
        assert_eq!(serving.epoch(), e0 + 1);
        assert_eq!(serving.query().unwrap().1.scalar(0), 10.0);

        // A rejected delta (deleting a row that does not exist) must not
        // advance the published epoch nor disturb served results.
        let bad = Delta::delete("R", vec![Value::Int(99), Value::F64(99.0)]);
        assert!(serving.apply_delta(&bad).is_err());
        assert_eq!(serving.epoch(), e0 + 1, "failed delta never publishes");
        assert_eq!(serving.query().unwrap().1.scalar(0), 10.0);
        let s = serving.stats();
        assert_eq!((s.deltas_applied, s.deltas_rejected), (1, 1));
        assert!(s.queries >= 3);
    }

    #[test]
    fn pinned_snapshot_survives_later_epochs() {
        let serving = ServingEngine::new(
            LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() }),
            &db(),
            &sum_query(),
        )
        .unwrap();
        let pinned = serving.snapshot();
        for k in 4..10 {
            serving
                .apply_delta(&Delta::insert("R", vec![Value::Int(k), Value::F64(k as f64)]))
                .unwrap();
        }
        // The pin still answers at its own epoch…
        assert_eq!(serving.query_at(&pinned).unwrap().scalar(0), 6.0);
        assert_eq!(pinned.epoch() + 6, serving.epoch());
        // …while fresh pins see the latest.
        assert_eq!(serving.query().unwrap().1.scalar(0), 45.0);
        // And the writer's maintained result agrees with a cold run.
        let cold = FlatEngine.run(serving.snapshot().database(), &sum_query()).unwrap();
        assert_eq!(serving.maintained().unwrap().scalar(0), cold.scalar(0));
    }

    /// An engine whose `eval` panics once, while the writer mutex is held
    /// mutably — the poisoning scenario `writer_lock` recovers from.
    struct PanickyEval {
        armed: std::sync::atomic::AtomicBool,
    }

    impl Engine for PanickyEval {
        fn name(&self) -> &'static str {
            "panicky-eval"
        }
        fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
            FlatEngine.run(db, q)
        }
    }

    impl crate::maintain::MaintainableEngine for PanickyEval {
        fn eval(&self, st: &mut MaintState) -> Result<BatchResult, DataError> {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("eval panic while holding the writer state");
            }
            self.run(st.database(), st.query())
        }
    }

    #[test]
    fn poisoned_writer_mutex_degrades_to_reprepare_instead_of_panicking() {
        let serving = ServingEngine::new(
            PanickyEval { armed: std::sync::atomic::AtomicBool::new(true) },
            &db(),
            &sum_query(),
        )
        .unwrap();
        let e0 = serving.epoch();
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| serving.maintained()));
        assert!(panicked.is_err(), "first eval must escape as a panic");

        // The writer mutex is now poisoned. Every writer-side entry point
        // must recover (re-prepare from the maintained database) rather
        // than panic, and the stream must keep its exactness.
        serving.apply_delta(&Delta::insert("R", vec![Value::Int(4), Value::F64(4.0)])).unwrap();
        assert_eq!(serving.epoch(), e0 + 1);
        assert_eq!(serving.query().unwrap().1.scalar(0), 10.0);
        assert_eq!(serving.maintained().unwrap().scalar(0), 10.0);
    }

    #[test]
    fn readers_race_writer_without_torn_epochs() {
        let serving = Arc::new(ServingEngine::new(FlatEngine, &db(), &sum_query()).unwrap());
        let writer = {
            let serving = Arc::clone(&serving);
            std::thread::spawn(move || {
                for k in 0..40 {
                    serving
                        .apply_delta(&Delta::insert(
                            "R",
                            vec![Value::Int(100 + k), Value::F64(1.0)],
                        ))
                        .unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let serving = Arc::clone(&serving);
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let (epoch, r) = serving.query().unwrap();
                        // Each committed epoch adds exactly one row worth
                        // 1.0: the count at epoch e is 3 + e — any torn
                        // read (snapshot not matching its epoch) breaks it.
                        assert_eq!(r.scalar(1), 3.0 + epoch as f64);
                        assert_eq!(r.scalar(0), 6.0 + epoch as f64);
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(serving.epoch(), 40);
        assert_eq!(serving.stats().deltas_applied, 40);
    }
}
