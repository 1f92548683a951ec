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
//! * **Readers never block and never recompute.** [`ServingEngine::query`]
//!   pins the currently published [`EpochDb`] — an immutable
//!   [`Database::snapshot`] paired with the answer the writer maintained
//!   for exactly that epoch — and returns a copy of that answer. No engine
//!   runs on the read path. The published pointer lives in an
//!   `RwLock<Arc<EpochDb>>` whose write lock is held only for the pointer
//!   exchange (an `ArcSwap` without the dependency), so a reader's pin is
//!   two refcount bumps, never a wait on maintenance.
//! * **One writer, transactional.** [`ServingEngine::apply_delta`] funnels
//!   every delta through the maintained [`MaintState`] under a writer
//!   mutex: validation, commit, incremental view maintenance, and
//!   rollback-on-failure are exactly the guarantees of
//!   [`MaintainableEngine::apply_delta`].
//! * **Publication is ordered after maintenance.** The new epoch's
//!   database and its maintained result become visible to readers in one
//!   pointer swap, only after the engine's maintenance (including its
//!   [`ViewCache`](crate::ViewCache) re-admissions under post-delta
//!   content ids) succeeded; a failed delta rolls back, invalidates the
//!   rolled-back ids, and **never publishes** — so no reader can ever pin
//!   an epoch whose caches carry state from a failed or half-applied
//!   delta, nor a result from a different epoch than its database.
//!
//! **Why stale cache hits are impossible across epochs.** Both global
//! caches key on [`fdb_data::Relation::data_id`], a nonce every mutation
//! refreshes and rollback restores-without-reuse. A reader pinned at
//! epoch *e* holds `Arc`s of exactly the relations (and therefore ids) of
//! *e*; views admitted by the writer for epoch *e+1* are keyed by ids
//! that exist in no relation of *e*. Ad-hoc reads
//! ([`ServingEngine::query_adhoc`]) run an engine on the pin and hit
//! those caches; the striped caches (see [`fdb_data::SortCache`]) make
//! concurrent hits scale and the id discipline makes them *correct*.

use crate::ir::{AggQuery, BatchResult};
use crate::maintain::{MaintState, MaintainableEngine};
use fdb_data::{DataError, Database, Delta};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// One published epoch: an immutable database snapshot and the served
/// query's maintained answer at that snapshot, swapped in together.
///
/// Cheap to produce ([`Database::snapshot`] clones an `Arc` per relation,
/// and the answer is the writer's own `Arc`, not a copy) and safe to read
/// from any number of threads; the writer's next epoch copy-on-writes
/// mutated relations and the answer it patches, never this one's.
#[derive(Clone)]
pub struct EpochDb {
    db: Database,
    result: Arc<BatchResult>,
}

impl EpochDb {
    fn new(db: Database, result: Arc<BatchResult>) -> Self {
        Self { db, result }
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
    /// Reads served from pinned snapshots (maintained answers and ad-hoc
    /// runs alike).
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
    /// Merged batches dropped after rollback (permanent error, or a
    /// transient one that outlasted the retries).
    pub batches_failed: u64,
    /// Submits refused at admission by an injected `queue-admit` fault.
    pub rejected: u64,
    /// Submits that hit their deadline ([`DataError::Timeout`]) on a full
    /// queue.
    pub timed_out: u64,
    /// Retry attempts after transient batch failures.
    pub retries: u64,
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
    /// evaluation cost once), evaluates the first answer from the prepared
    /// state, and publishes both as the initial epoch.
    pub fn new(engine: E, db: &Database, q: &AggQuery) -> Result<Self, DataError> {
        let st = engine.prepare(db, q)?;
        let result = engine.eval(&st)?;
        let first = Arc::new(EpochDb::new(st.database().snapshot(), result));
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

    /// The served query's answer at the currently published epoch, as
    /// `(epoch, result)` — the epoch identifies exactly which database
    /// state the result reflects, so callers can correlate answers from
    /// concurrent readers. The answer is the one the writer maintained
    /// for that epoch; no engine runs.
    pub fn query(&self) -> Result<(u64, BatchResult), DataError> {
        let snap = self.snapshot();
        Ok((snap.epoch(), self.query_at(&snap)?))
    }

    /// The served query's maintained answer at an explicitly pinned
    /// snapshot — the stable-read primitive: a session that must see one
    /// consistent epoch across several reads pins once and passes it here.
    /// A copy of the published answer; no engine runs.
    pub fn query_at(&self, snap: &EpochDb) -> Result<BatchResult, DataError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        Ok((*snap.result).clone())
    }

    /// Evaluates an ad-hoc query (not the prepared one) against a pinned
    /// snapshot by running the engine on it: an ad-hoc query has no
    /// maintained answer.
    pub fn query_adhoc(&self, snap: &EpochDb, q: &AggQuery) -> Result<BatchResult, DataError> {
        let r = self.engine.run(snap.database(), q)?;
        self.queries.fetch_add(1, Ordering::Relaxed);
        Ok(r)
    }

    /// Applies one delta through the transactional maintenance path and —
    /// only on success — publishes the new epoch's database together with
    /// its maintained result. Concurrent callers serialize on the writer
    /// lock; readers are unaffected either way:
    ///
    /// * `Ok`: the returned result is the very `Arc` readers pin from this
    ///   point on (the maintained views the engine re-admitted to the
    ///   global cache are keyed by post-delta ids, so the *next* ad-hoc or
    ///   cold run at the new epoch hits them).
    /// * `Err`: the maintained state was rolled back to the pre-delta
    ///   epoch and cache entries under rolled-back ids invalidated by the
    ///   [`MaintainableEngine::apply_delta`] wrapper — and since nothing
    ///   publishes, readers keep pinning the last good epoch. The
    ///   invalidation happens strictly before this method returns, hence
    ///   strictly before any later successful delta publishes.
    pub fn apply_delta(&self, delta: &Delta) -> Result<Arc<BatchResult>, DataError> {
        let mut st = self.writer_lock();
        match self.engine.apply_delta(&mut st, delta) {
            Ok(r) => {
                self.publish(st.database().snapshot(), Arc::clone(&r));
                self.deltas_applied.fetch_add(1, Ordering::Relaxed);
                Ok(r)
            }
            Err(e) => {
                self.deltas_rejected.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
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
    /// maintained state was held mutably — e.g. from an engine that
    /// overrides [`MaintainableEngine::apply_delta`] and so bypasses the
    /// wrapper's containment — so the incremental structures may be
    /// half-updated. Trusting them would risk serving wrong results, so
    /// this recovers exactly like the transactional wrapper does after a
    /// failed delta: rebuild the state from its own (epoch-consistent)
    /// database via `prepare`, falling back to recompute-per-delta if even
    /// that fails or panics, then clear the poison flag. The published
    /// snapshot is untouched either way — readers never observe the
    /// recovery.
    fn writer_lock(&self) -> MutexGuard<'_, MaintState> {
        match self.writer.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                let (db, q) = (guard.database().clone(), guard.query().clone());
                *guard = match crate::morsel::contain(|| self.engine.prepare(&db, &q)) {
                    Ok(Ok(fresh)) => fresh,
                    _ => MaintState::recompute(db, q),
                };
                self.writer.clear_poison();
                guard
            }
        }
    }

    /// Atomically replaces the published snapshot and its answer. Called
    /// only with the writer lock held and only after maintenance
    /// succeeded, which is the publication-ordering invariant: every cache
    /// admission and invalidation of the delta happens-before the epoch
    /// becomes pinnable. The previous epoch is dropped after the write
    /// lock is released, so freeing its answer never stalls a reader's pin.
    fn publish(&self, db: Database, result: Arc<BatchResult>) {
        let next = Arc::new(EpochDb::new(db, result));
        let prev = std::mem::replace(
            &mut *self.published.write().unwrap_or_else(|p| p.into_inner()),
            next,
        );
        drop(prev);
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
        // …while fresh pins see the latest, which agrees with a cold run.
        let (_, latest) = serving.query().unwrap();
        assert_eq!(latest.scalar(0), 45.0);
        let cold = FlatEngine.run(serving.snapshot().database(), &sum_query()).unwrap();
        assert_eq!(latest.scalar(0), cold.scalar(0));
    }

    /// Same group attrs, same represented keys, same bits.
    fn assert_bit_identical(expect: &BatchResult, got: &BatchResult) {
        assert_eq!(expect.groups, got.groups);
        for (e, g) in expect.values.iter().zip(&got.values) {
            assert_eq!(e.len(), g.len());
            for (k, v) in e {
                assert_eq!(g.get(k).map(|x| x.to_bits()), Some(v.to_bits()), "key {k:?}");
            }
        }
    }

    /// Counts every [`Engine::run`] while maintaining through LMFAO's
    /// view tree, which never calls back into `run`.
    struct CountingRuns {
        inner: LmfaoEngine,
        runs: AtomicU64,
    }

    impl Engine for CountingRuns {
        fn name(&self) -> &'static str {
            "counting-runs"
        }
        fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            self.inner.run(db, q)
        }
    }

    impl MaintainableEngine for CountingRuns {
        fn prepare(&self, db: &Database, q: &AggQuery) -> Result<MaintState, DataError> {
            self.inner.prepare(db, q)
        }
        fn apply_delta_kind(
            &self,
            st: &mut MaintState,
            delta: &Delta,
        ) -> Result<Arc<BatchResult>, DataError> {
            self.inner.apply_delta_kind(st, delta)
        }
        fn eval(&self, st: &MaintState) -> Result<Arc<BatchResult>, DataError> {
            self.inner.eval(st)
        }
    }

    #[test]
    fn reads_run_no_engine_and_rejected_deltas_keep_the_published_pair() {
        let engine = CountingRuns {
            inner: LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() }),
            runs: AtomicU64::new(0),
        };
        let serving = ServingEngine::new(engine, &db(), &sum_query()).unwrap();
        let runs0 = serving.engine().runs.load(Ordering::SeqCst);
        let e0 = serving.epoch();
        for k in 4..12 {
            for _ in 0..3 {
                let (epoch, r) = serving.query().unwrap();
                let snap = serving.snapshot();
                assert_eq!(epoch, snap.epoch());
                assert_bit_identical(&r, &serving.query_at(&snap).unwrap());
            }
            let served = serving
                .apply_delta(&Delta::insert("R", vec![Value::Int(k), Value::F64(k as f64)]))
                .unwrap();
            // The writer hands back the very answer it published.
            assert!(Arc::ptr_eq(&served, &serving.snapshot().result));
        }
        assert_eq!(serving.epoch(), e0 + 8);
        assert_eq!(serving.query().unwrap().1.scalar(0), 66.0);
        assert_eq!(serving.engine().runs.load(Ordering::SeqCst), runs0, "no read ran the engine");

        // A rejected delta leaves the published (epoch, result) untouched.
        let before = serving.snapshot();
        let (epoch_before, answer_before) = serving.query().unwrap();
        let bad = Delta::delete("R", vec![Value::Int(99), Value::F64(99.0)]);
        assert!(serving.apply_delta(&bad).is_err());
        assert!(Arc::ptr_eq(&before, &serving.snapshot()), "a rejected delta never publishes");
        let (epoch_after, answer_after) = serving.query().unwrap();
        assert_eq!(epoch_before, epoch_after);
        assert_bit_identical(&answer_before, &answer_after);
    }

    /// R(k, g, c, x) ⋈ S(g, y) with non-dyadic `k/3 + 0.1` measures.
    fn real_db() -> Database {
        let mut db = Database::new();
        let mut r = Relation::new(Schema::of(&[
            ("k", AttrType::Int),
            ("g", AttrType::Categorical),
            ("c", AttrType::Categorical),
            ("x", AttrType::Double),
        ]));
        for k in 0..40i64 {
            r.push_row(&real_row(k)).unwrap();
        }
        let mut s =
            Relation::new(Schema::of(&[("g", AttrType::Categorical), ("y", AttrType::Double)]));
        for g in 0..3i64 {
            s.push_row(&[Value::Int(g), Value::F64(g as f64 / 3.0 + 0.1)]).unwrap();
        }
        db.add("R", r);
        db.add("S", s);
        db
    }

    fn real_row(k: i64) -> Vec<Value> {
        vec![Value::Int(k), Value::Int(k % 3), Value::Int(k % 4), Value::F64(k as f64 / 3.0 + 0.1)]
    }

    fn real_query() -> AggQuery {
        let mut batch = AggBatch::new();
        batch.push(Aggregate::count());
        batch.push(Aggregate::sum("x"));
        batch.push(Aggregate::sum_prod("x", "y"));
        batch.push(Aggregate::sum_prod("x", "x").by(&["c"]));
        batch.push(Aggregate::sum("y").by(&["c"]));
        AggQuery::new(&["R", "S"], batch)
    }

    /// The float contract for served answers (DESIGN §2.10): a maintained
    /// answer over non-dyadic measures matches a cold run within the §2.7
    /// bound, not bit for bit; two reads of one pin are bit-identical.
    #[test]
    fn served_answers_over_real_measures_track_cold_runs() {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
        let mut deltas: Vec<Delta> = (40..52).map(|k| Delta::insert("R", real_row(k))).collect();
        deltas.insert(6, Delta::delete("R", real_row(17)));
        let seq = EngineConfig { threads: 1, ..Default::default() };
        let morsels = EngineConfig { threads: 2, morsel_rows: 8, ..Default::default() };
        for cfg in [seq, morsels] {
            let mut shadow = real_db();
            let serving =
                ServingEngine::new(LmfaoEngine::with_config(cfg), &shadow, &real_query()).unwrap();
            for (i, d) in std::iter::once(None).chain(deltas.iter().map(Some)).enumerate() {
                if let Some(d) = d {
                    shadow.apply_delta(d).unwrap();
                    serving.apply_delta(d).unwrap();
                }
                let snap = serving.snapshot();
                let (epoch, served) = serving.query().unwrap();
                assert_eq!(epoch, snap.epoch());
                assert_bit_identical(&served, &serving.query_at(&snap).unwrap());
                let cold = FlatEngine.run(&shadow, &real_query()).unwrap();
                assert_eq!(cold.groups, served.groups);
                for (a, (c, s)) in cold.values.iter().zip(&served.values).enumerate() {
                    assert_eq!(c.len(), s.len(), "step {i} agg {a}: key count");
                    for (k, v) in c {
                        let got = s.get(k).copied().unwrap_or(0.0);
                        assert!(close(*v, got), "step {i} agg {a} key {k:?}: cold {v}, got {got}");
                    }
                }
            }
        }
    }

    /// An engine that overrides the transactional wrapper and panics in
    /// it once when armed, while the writer mutex is held mutably: the
    /// poisoning scenario `writer_lock` recovers from. Counts `prepare`
    /// calls so the test can see the recovery re-prepare.
    struct PanickyApply {
        armed: std::sync::atomic::AtomicBool,
        prepares: AtomicU64,
    }

    impl Engine for PanickyApply {
        fn name(&self) -> &'static str {
            "panicky-apply"
        }
        fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
            FlatEngine.run(db, q)
        }
    }

    impl MaintainableEngine for PanickyApply {
        fn prepare(&self, db: &Database, q: &AggQuery) -> Result<MaintState, DataError> {
            self.prepares.fetch_add(1, Ordering::SeqCst);
            FlatEngine.prepare(db, q)
        }
        fn apply_delta(
            &self,
            st: &mut MaintState,
            delta: &Delta,
        ) -> Result<Arc<BatchResult>, DataError> {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("apply_delta panic while holding the writer state");
            }
            FlatEngine.apply_delta(st, delta)
        }
    }

    #[test]
    fn poisoned_writer_mutex_degrades_to_reprepare_instead_of_panicking() {
        let serving = ServingEngine::new(
            PanickyApply {
                armed: std::sync::atomic::AtomicBool::new(true),
                prepares: AtomicU64::new(0),
            },
            &db(),
            &sum_query(),
        )
        .unwrap();
        let e0 = serving.epoch();
        let d = |k: i64| Delta::insert("R", vec![Value::Int(k), Value::F64(k as f64)]);
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| serving.apply_delta(&d(4))));
        assert!(panicked.is_err(), "the armed apply_delta must escape as a panic");
        // Poison recovery never publishes.
        assert_eq!(serving.epoch(), e0);
        assert_eq!(serving.query().unwrap().1.scalar(0), 6.0);
        assert_eq!(serving.engine().prepares.load(Ordering::SeqCst), 1);

        // The writer mutex is now poisoned. The next writer-side call must
        // recover (re-prepare from the maintained database) rather than
        // panic, and the stream must keep its exactness.
        serving.apply_delta(&d(4)).unwrap();
        assert_eq!(serving.engine().prepares.load(Ordering::SeqCst), 2, "recovery re-prepared");
        assert_eq!(serving.epoch(), e0 + 1);
        assert_eq!(serving.query().unwrap().1.scalar(0), 10.0);
        serving.apply_delta(&d(5)).unwrap();
        assert_eq!(serving.engine().prepares.load(Ordering::SeqCst), 2, "healed: no more rebuilds");
        assert_eq!(serving.query().unwrap().1.scalar(0), 15.0);
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
