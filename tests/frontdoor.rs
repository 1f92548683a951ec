//! Integration suite for the serving front door.
//!
//! Three layers over [`FrontDoor`]:
//!
//! * **Failure paths** — a flaky engine whose maintenance fails
//!   transiently is retried through the maintenance wrapper's rollback and
//!   re-prepare with no admitted delta lost and the published answer
//!   bit-identical to a cold run; an engine whose re-prepare panics must
//!   neither kill the writer thread nor hang [`FrontDoor::flush`].
//! * **Panel agreement** — every engine composition behind a front door
//!   serves, after each committed batch, exactly what a cold run over an
//!   equivalently mutated shadow database computes.
//! * **Concurrency** — producers race the writer under a small queue
//!   while readers pin snapshots; every reader-observed `(epoch, result)`
//!   pair is verified bit-identical to a cold recompute over the very
//!   database the snapshot pinned.

use fdb::data::{AttrType, DataError, Database, Delta, Relation, Schema, Value};
use fdb::lmfao::serve::EpochDb;
use fdb::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

fn row(k: i64, x: f64) -> Vec<Value> {
    vec![Value::Int(k), Value::F64(x)]
}

/// Exact equality — same group attrs, same represented keys, same bits.
fn assert_bit_identical(expect: &BatchResult, got: &BatchResult, tag: &str, naggs: usize) {
    for i in 0..naggs {
        assert_eq!(expect.groups[i], got.groups[i], "{tag}: agg {i}: group attrs");
        assert_eq!(expect.grouped(i).len(), got.grouped(i).len(), "{tag}: agg {i}: key count");
        for (k, v) in expect.grouped(i) {
            let g = got.grouped(i).get(k).copied();
            assert_eq!(
                g.map(f64::to_bits),
                Some(v.to_bits()),
                "{tag}: agg {i} key {k:?}: expected {v}, got {g:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Failure paths: bounded retry, contained re-prepare
// ---------------------------------------------------------------------------

/// Wraps [`LmfaoEngine`]: the first `n` maintenance calls fail
/// transiently, and every `prepare` is counted so a test can see the
/// wrapper's re-prepare after each failure.
struct FlakyEngine {
    inner: LmfaoEngine,
    failures: AtomicU32,
    prepares: AtomicU32,
}

impl FlakyEngine {
    fn failing(n: u32) -> Self {
        Self {
            inner: LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() }),
            failures: AtomicU32::new(n),
            prepares: AtomicU32::new(0),
        }
    }
}

impl Engine for FlakyEngine {
    fn name(&self) -> &'static str {
        "flaky-lmfao"
    }
    fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
        self.inner.run(db, q)
    }
}

impl MaintainableEngine for FlakyEngine {
    fn prepare(&self, db: &Database, q: &AggQuery) -> Result<MaintState, DataError> {
        self.prepares.fetch_add(1, Ordering::SeqCst);
        self.inner.prepare(db, q)
    }
    fn apply_delta_kind(
        &self,
        st: &mut MaintState,
        delta: &Delta,
    ) -> Result<Arc<BatchResult>, DataError> {
        if self
            .failures
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(DataError::Injected("flaky-maintenance".into()));
        }
        self.inner.apply_delta_kind(st, delta)
    }
    fn eval(&self, st: &MaintState) -> Result<Arc<BatchResult>, DataError> {
        self.inner.eval(st)
    }
}

#[test]
fn transient_failures_retry_through_the_wrappers_reprepare_without_losing_deltas() {
    let fd =
        FrontDoor::new(FlakyEngine::failing(2), &db(), &sum_query(), FrontDoorConfig::default())
            .unwrap();
    let e0 = fd.epoch();
    let mut shadow = db();

    // One group-committed batch of three deltas fails twice, then commits.
    fd.pause();
    for k in 0..3 {
        let d = Delta::insert("R", row(10 + k, 0.5 + k as f64));
        shadow.apply_delta(&d).unwrap();
        fd.submit(d).unwrap();
    }
    fd.flush();
    let s = fd.stats();
    assert_eq!(s.retries, 2, "two transient failures, two retries");
    assert_eq!((s.batches_committed, s.coalesced, s.batches_failed), (1, 2, 0));
    assert_eq!(fd.epoch(), e0 + 1, "the retried batch publishes one epoch");
    assert_eq!(
        fd.serving().engine().prepares.load(Ordering::SeqCst),
        3,
        "the initial prepare plus one wrapper re-prepare per failed attempt"
    );
    let cold = FlatEngine.run(&shadow, &sum_query()).unwrap();
    assert_bit_identical(&cold, &fd.query().unwrap().1, "after the retried batch", 2);

    // The healed engine maintains the next delta with no retry.
    let d = Delta::insert("R", row(20, 4.0));
    shadow.apply_delta(&d).unwrap();
    fd.submit(d).unwrap();
    fd.flush();
    let s = fd.stats();
    assert_eq!((s.retries, s.batches_committed, s.batches_failed), (2, 2, 0));
    let cold = FlatEngine.run(&shadow, &sum_query()).unwrap();
    let (epoch, got) = fd.query().unwrap();
    assert_eq!(epoch, e0 + 2);
    assert_bit_identical(&cold, &got, "after the healed delta", 2);
}

/// Fails its first delta permanently, and panics in the re-prepare the
/// maintenance wrapper runs after that failure (its second `prepare`; the
/// first is the front door's own).
#[derive(Default)]
struct PanickyReprepare {
    prepares: AtomicU32,
    failed: AtomicBool,
}

impl Engine for PanickyReprepare {
    fn name(&self) -> &'static str {
        "panicky-reprepare"
    }
    fn run(&self, db: &Database, q: &AggQuery) -> Result<BatchResult, DataError> {
        FlatEngine.run(db, q)
    }
}

impl MaintainableEngine for PanickyReprepare {
    fn prepare(&self, db: &Database, q: &AggQuery) -> Result<MaintState, DataError> {
        if self.prepares.fetch_add(1, Ordering::SeqCst) == 1 {
            panic!("re-prepare panics");
        }
        FlatEngine.prepare(db, q)
    }
    fn apply_delta_kind(
        &self,
        st: &mut MaintState,
        delta: &Delta,
    ) -> Result<Arc<BatchResult>, DataError> {
        if !self.failed.swap(true, Ordering::SeqCst) {
            return Err(DataError::Invalid("the first delta fails".into()));
        }
        FlatEngine.apply_delta_kind(st, delta)
    }
}

#[test]
fn a_panicking_reprepare_neither_kills_the_writer_nor_hangs_flush() {
    let fd = Arc::new(
        FrontDoor::new(
            PanickyReprepare::default(),
            &db(),
            &sum_query(),
            FrontDoorConfig::default(),
        )
        .unwrap(),
    );
    let e0 = fd.epoch();
    // Submit and flush on a detached thread: if the writer died, flush
    // never returns, and the deadline turns the hang into a failure.
    let (tx, rx) = std::sync::mpsc::channel();
    {
        let fd = Arc::clone(&fd);
        std::thread::spawn(move || {
            fd.submit(Delta::insert("R", row(10, 1.0))).unwrap();
            fd.flush();
            tx.send(()).unwrap();
        });
    }
    rx.recv_timeout(Duration::from_secs(10))
        .expect("flush() did not return: the writer thread died in the re-prepare");
    let s = fd.stats();
    assert_eq!((s.batches_committed, s.batches_failed), (0, 1), "the batch counts as failed");
    assert_eq!(fd.epoch(), e0, "a failed batch never publishes");

    // The writer is alive and the next delta commits.
    fd.submit(Delta::insert("R", row(11, 5.0))).unwrap();
    fd.flush();
    let s = fd.stats();
    assert_eq!((s.batches_committed, s.batches_failed), (1, 1));
    let (epoch, got) = fd.query().unwrap();
    assert_eq!(epoch, e0 + 1);
    assert_eq!((got.scalar(0), got.scalar(1)), (11.0, 4.0));
}

// ---------------------------------------------------------------------------
// Panel agreement
// ---------------------------------------------------------------------------

type DynEngine = Box<dyn MaintainableEngine + Send + Sync>;

fn panel() -> Vec<(String, DynEngine)> {
    let seq = EngineConfig { threads: 1, ..Default::default() };
    let morsels = EngineConfig { threads: 3, morsel_rows: 2, ..Default::default() };
    vec![
        ("flat".into(), Box::new(FlatEngine)),
        ("lmfao".into(), Box::new(LmfaoEngine::with_config(seq))),
        ("dispatch".into(), Box::new(DispatchEngine::new())),
        ("morsel-lmfao".into(), Box::new(LmfaoEngine::with_config(morsels))),
    ]
}

#[test]
fn every_panel_composition_serves_cold_identical_epochs_through_the_front_door() {
    let db = fdb::datasets::dish::dish_database();
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count());
    batch.push(Aggregate::sum("price"));
    batch.push(Aggregate::sum("price").by(&["day", "customer"]));
    let q = AggQuery::new(&["Orders", "Dish", "Items"], batch);
    let dish_row = |d: i64, i: i64| vec![Value::Int(d), Value::Int(i)];
    let order_row = db.get("Orders").unwrap().row_vec(0);
    let deltas = [
        Delta::insert("Orders", order_row.clone()),
        Delta::insert("Dish", dish_row(0, 3)),
        Delta::delete("Orders", order_row),
        Delta::new("Dish").with_insert(dish_row(1, 0)).with_delete(dish_row(0, 3)),
    ];
    for (name, engine) in panel() {
        let fd = FrontDoor::new(engine, &db, &q, FrontDoorConfig::default())
            .unwrap_or_else(|e| panic!("{name}: prepare: {e}"));
        let e0 = fd.epoch();
        let mut shadow = db.clone();
        for (i, d) in deltas.iter().enumerate() {
            shadow.apply_delta(d).unwrap();
            fd.submit(d.clone()).unwrap_or_else(|e| panic!("{name} delta {i}: {e}"));
            fd.flush();
            assert_eq!(fd.epoch(), e0 + i as u64 + 1, "{name}: flush-per-submit, one epoch each");
            let cold = fd
                .serving()
                .engine()
                .run(&shadow, &q)
                .unwrap_or_else(|e| panic!("{name} cold {i}: {e}"));
            let (_, got) = fd.query().unwrap();
            assert_bit_identical(&cold, &got, &format!("{name} epoch {}", i + 1), q.batch.len());
        }
        let (stats, _serving) = fd.close();
        assert_eq!(stats.batches_committed, deltas.len() as u64, "{name}");
        assert_eq!(stats.batches_failed, 0, "{name}");
    }
}

// ---------------------------------------------------------------------------
// Concurrency: racing producers, pinned readers
// ---------------------------------------------------------------------------

#[test]
fn racing_producers_and_readers_observe_only_cold_identical_snapshots() {
    let q = sum_query();
    let cfg = FrontDoorConfig {
        queue_capacity: 4, // small on purpose: producers wait for space
        submit_timeout: Duration::from_secs(30),
    };
    let fd = FrontDoor::new(FlatEngine, &db(), &q, cfg).unwrap();
    let observed: Mutex<Vec<(Arc<EpochDb>, BatchResult)>> = Mutex::new(Vec::new());
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (fd, observed, done) = (&fd, &observed, &done);
        for r in 0..3 {
            s.spawn(move || {
                let mut served = 0usize;
                while !done.load(Ordering::Acquire) || served < 3 {
                    let snap = fd.snapshot();
                    let got =
                        fd.serving().query_at(&snap).unwrap_or_else(|e| panic!("reader {r}: {e}"));
                    observed.lock().unwrap().push((snap, got));
                    served += 1;
                }
            });
        }
        for t in 0..3i64 {
            s.spawn(move || {
                for k in 0..12 {
                    fd.submit(Delta::insert("R", row(100 * t + k, 1.0))).unwrap();
                }
            });
        }
        s.spawn(move || {
            // Producers finish, then the queue drains: release readers.
            while fd.stats().submitted < 36 {
                std::thread::yield_now();
            }
            fd.flush();
            done.store(true, Ordering::Release);
        });
    });

    // Every reader-observed (epoch, result) pair must be bit-identical to
    // a cold recompute over the very database its snapshot pinned.
    let observed = observed.into_inner().unwrap();
    assert!(observed.len() >= 9);
    for (snap, got) in &observed {
        let cold = FlatEngine.run(snap.database(), &q).unwrap();
        assert_bit_identical(&cold, got, &format!("epoch {}", snap.epoch()), 2);
    }
    let s = fd.stats();
    assert_eq!(s.submitted, 36);
    assert_eq!(s.queued, 0);
    assert_eq!(s.batches_committed + s.coalesced, 36, "every admitted delta resolved");
    assert_eq!(s.batches_failed, 0);
    assert_eq!(fd.query().unwrap().1.scalar(1), 3.0 + 36.0);
}
