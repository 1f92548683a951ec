//! Integration suite for the resilient serving front door.
//!
//! Three layers over [`FrontDoor`]:
//!
//! * **Breaker lifecycle** — a flaky engine whose *incremental* path
//!   fails while recompute keeps working drives the full state machine:
//!   trip → degraded group commits → half-open probe → relapse → probe →
//!   recovery, with no admitted delta lost and every published epoch
//!   bit-identical to a cold run.
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
// Breaker lifecycle with a flaky incremental engine
// ---------------------------------------------------------------------------

/// Wraps [`LmfaoEngine`]: while `incremental_failures > 0` every
/// *incremental* maintenance call fails transiently, but the degraded
/// recompute path (and cold `run`) keeps working — the exact failure
/// model the circuit breaker exists for.
struct FlakyEngine {
    inner: LmfaoEngine,
    incremental_failures: AtomicU32,
}

impl FlakyEngine {
    fn failing(n: u32) -> Self {
        Self {
            inner: LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() }),
            incremental_failures: AtomicU32::new(n),
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
        self.inner.prepare(db, q)
    }
    fn apply_delta_kind(
        &self,
        st: &mut MaintState,
        delta: &Delta,
    ) -> Result<BatchResult, DataError> {
        if !st.is_recompute() && self.incremental_failures.load(Ordering::SeqCst) > 0 {
            self.incremental_failures.fetch_sub(1, Ordering::SeqCst);
            return Err(DataError::Injected("flaky-incremental".into()));
        }
        self.inner.apply_delta_kind(st, delta)
    }
    fn eval(&self, st: &mut MaintState) -> Result<BatchResult, DataError> {
        self.inner.eval(st)
    }
}

#[test]
fn breaker_trips_degrades_probes_relapses_and_recovers_without_losing_deltas() {
    // retry_max 1 → a failing batch burns 2 incremental attempts;
    // threshold 1 → the first exhausted batch trips (and is re-applied
    // degraded, which already counts as the first degraded success);
    // probe_after 2 → one more degraded batch arms the probe. 4 scripted
    // failures therefore walk: trip → degraded → probe+relapse (trip
    // again) → degraded → probe+recovery.
    let cfg = FrontDoorConfig {
        retry_max: 1,
        breaker_threshold: 1,
        breaker_probe_after: 2,
        backoff_base: Duration::from_micros(10),
        ..Default::default()
    };
    let fd = FrontDoor::new(FlakyEngine::failing(4), &db(), &sum_query(), cfg).unwrap();
    let e0 = fd.epoch();
    let mut shadow = db();

    let expect_states = [
        BreakerState::Open,     // b1: exhausted → trip, committed degraded
        BreakerState::HalfOpen, // b2: degraded success → probe armed
        BreakerState::Open,     // b3: probe re-prepares, relapses → re-trip
        BreakerState::HalfOpen, // b4: degraded success again
        BreakerState::Closed,   // b5: probe succeeds → recovery
    ];
    for (i, want) in expect_states.iter().enumerate() {
        let d = Delta::insert("R", row(10 + i as i64, 1.0));
        shadow.apply_delta(&d).unwrap();
        fd.submit(d).unwrap();
        fd.flush();
        assert_eq!(fd.breaker_state(), *want, "after batch {}", i + 1);
        assert_eq!(fd.epoch(), e0 + i as u64 + 1, "batch {} still committed", i + 1);
    }

    let s = fd.stats();
    assert_eq!(s.batches_committed, 5, "no admitted delta was lost");
    assert_eq!(s.batches_failed, 0);
    assert_eq!(s.retries, 2, "one retry per exhausted batch (retry_max = 1)");
    assert_eq!(s.breaker_trips, 2, "initial trip plus the half-open relapse");
    assert_eq!(s.breaker_probes, 2);
    assert_eq!(s.breaker_recoveries, 1);
    assert!(!fd.serving().is_degraded(), "recovery restored the incremental state");

    let cold = FlatEngine.run(&shadow, &sum_query()).unwrap();
    let (epoch, got) = fd.query().unwrap();
    assert_eq!(epoch, e0 + 5);
    assert_bit_identical(&cold, &got, "post-recovery", 2);
}

#[test]
fn degraded_mode_keeps_committing_while_incremental_stays_broken() {
    let cfg = FrontDoorConfig {
        retry_max: 0,
        breaker_threshold: 2,
        breaker_probe_after: 100, // stay degraded for this test
        backoff_base: Duration::from_micros(10),
        ..Default::default()
    };
    let fd = FrontDoor::new(FlakyEngine::failing(u32::MAX), &db(), &sum_query(), cfg).unwrap();
    let e0 = fd.epoch();
    // Two exhausted batches trip the breaker (threshold 2, no retries);
    // the second one is re-applied degraded at the trip, so only the
    // first is lost.
    for k in 0..6 {
        fd.submit(Delta::insert("R", row(20 + k, 1.0))).unwrap();
        fd.flush();
    }
    let s = fd.stats();
    assert_eq!(fd.breaker_state(), BreakerState::Open);
    assert!(fd.serving().is_degraded());
    assert_eq!(s.breaker_trips, 1);
    assert_eq!(s.batches_failed, 1, "only the pre-trip batch was dropped");
    assert_eq!(s.batches_committed, 5, "everything after the trip commits degraded");
    assert_eq!(fd.epoch(), e0 + 5);
    assert_eq!(fd.query().unwrap().1.scalar(1), 3.0 + 5.0);
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
        queue_capacity: 4, // small on purpose: producers hit backpressure
        submit_timeout: Duration::from_secs(30),
        ..Default::default()
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
