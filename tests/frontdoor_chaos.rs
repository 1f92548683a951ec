//! Chaos suite for the serving front door (`--features fault-injection`).
//!
//! The acceptance contract, checked over ≥200 seeded fault schedules
//! spanning the queue, writer, and maintenance sites:
//!
//! * every reader-observed `(epoch, result)` pair is **bit-identical** to
//!   a cold recompute over an equivalently mutated shadow database at
//!   exactly that epoch;
//! * refused (rejected / timed-out) submits and dropped batches never
//!   publish an epoch;
//! * once the faults clear, the queue fully drains and the final epoch
//!   equals the count of committed batches;
//! * retry is deterministic: two runs under the same seeded
//!   [`FaultPlan`] produce identical retry counts, epochs, and results.
//!
//! The fault plan is process-global, so every test here serializes on
//! [`fault_lock`] and clears the plan before releasing it.
#![cfg(feature = "fault-injection")]

use fdb::data::fault::{self, FaultPlan};
use fdb::data::{AttrType, Database, Delta, Relation, Schema, Value};
use fdb::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes every test that installs a process-global fault plan.
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

/// splitmix64 — the same deterministic generator the fault plans use, so
/// delta streams reproduce from their seeds.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, p_percent: u64) -> bool {
        self.below(100) < p_percent
    }
}

/// F(a, b, c, x) ⋈ D1(a, w, u) ⋈ D2(b, v) — integer-valued measures so
/// incremental and cold aggregates are bit-exact (mirrors
/// `tests/fault_agree.rs`).
fn snowflake(nf: usize) -> Database {
    let mut db = Database::new();
    let mut f = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("b", AttrType::Int),
        ("c", AttrType::Categorical),
        ("x", AttrType::Double),
    ]));
    for i in 0..nf as i64 {
        let (a, b) = (i % 3, i % 2);
        f.push_row(&[Value::Int(a), Value::Int(b), Value::Int((a + b) % 3), Value::F64(i as f64)])
            .unwrap();
    }
    let mut d1 = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("w", AttrType::Categorical),
        ("u", AttrType::Double),
    ]));
    for a in 0..3i64 {
        d1.push_row(&[Value::Int(a), Value::Int(a % 2), Value::F64((2 - a) as f64)]).unwrap();
    }
    let mut d2 = Relation::new(Schema::of(&[("b", AttrType::Int), ("v", AttrType::Double)]));
    for b in 0..2i64 {
        d2.push_row(&[Value::Int(b), Value::F64((b + 1) as f64)]).unwrap();
    }
    db.add("F", f);
    db.add("D1", d1);
    db.add("D2", d2);
    db
}

fn query() -> AggQuery {
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count());
    batch.push(Aggregate::sum("x"));
    batch.push(Aggregate::count().by(&["c"]));
    batch.push(Aggregate::sum("x").by(&["c", "w"]));
    AggQuery::new(&["F", "D1", "D2"], batch)
}

fn frow(a: i64, b: i64, x: f64) -> Vec<Value> {
    vec![Value::Int(a), Value::Int(b), Value::Int((a + b) % 3), Value::F64(x)]
}

/// A canonical, `Eq`-comparable digest of a result: per aggregate, every
/// represented key mapped to the f64 *bit pattern* of its value.
fn digest(r: &BatchResult, naggs: usize) -> Vec<BTreeMap<String, u64>> {
    (0..naggs)
        .map(|i| r.grouped(i).iter().map(|(k, v)| (format!("{k:?}"), v.to_bits())).collect())
        .collect()
}

fn assert_bit_identical(expect: &BatchResult, got: &BatchResult, tag: &str, naggs: usize) {
    assert_eq!(digest(expect, naggs), digest(got, naggs), "{tag}");
}

fn lmfao_seq() -> LmfaoEngine {
    LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() })
}

/// A small queue, so the schedules run against a nearly full one.
fn chaos_config() -> FrontDoorConfig {
    FrontDoorConfig { queue_capacity: 8, ..Default::default() }
}

/// A mostly-valid random delta against the shadow's current state; ~1 in
/// 8 is an invalid delete (exercising the permanent-failure path).
fn random_delta(rng: &mut Rng, shadow: &Database) -> Delta {
    match rng.below(8) {
        0 => Delta::delete("F", frow(9, 9, 999.0)), // never present: permanent
        1 | 2 => {
            let f = shadow.get("F").unwrap();
            if f.len() > 1 {
                Delta::delete("F", f.row_vec(rng.below(f.len() as u64) as usize))
            } else {
                Delta::insert("F", frow(rng.below(3) as i64, rng.below(2) as i64, 77.0))
            }
        }
        _ => {
            let (a, b) = (rng.below(3) as i64, rng.below(2) as i64);
            Delta::insert("F", frow(a, b, rng.below(50) as f64))
        }
    }
}

/// A random schedule over queue, writer, and maintenance sites.
/// Panic rules are legal everywhere: the queue/writer sites demote them
/// (`check_err`) and the maintenance sites are containment-wrapped.
fn random_plan(rng: &mut Rng, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for site in ["queue-admit", "writer-drain"] {
        if rng.chance(60) {
            plan = plan.fail_with_probability(site, 0.08 + rng.below(15) as f64 / 100.0);
        }
    }
    for site in ["maintain-view", "maintain-publish", "delta-validate", "delta-commit"] {
        if rng.chance(50) {
            plan = if rng.chance(30) {
                plan.panic_with_probability(site, 0.05 + rng.below(10) as f64 / 100.0)
            } else {
                plan.fail_with_probability(site, 0.05 + rng.below(15) as f64 / 100.0)
            };
        }
    }
    plan
}

#[test]
fn two_hundred_seeded_schedules_serve_only_cold_identical_epochs() {
    let _guard = fault_lock();
    let db = snowflake(8);
    let q = query();
    let naggs = q.batch.len();
    let (mut committed_total, mut refused_total, mut dropped_total) = (0u64, 0u64, 0u64);
    for seed in 0..200u64 {
        let mut rng = Rng(seed ^ 0xD00F_D00F);
        fault::mute(true);
        let fd = FrontDoor::new(lmfao_seq(), &db, &q, chaos_config())
            .unwrap_or_else(|e| panic!("seed {seed}: prepare: {e}"));
        fault::mute(false);
        fault::install(random_plan(&mut rng, seed));

        let e0 = fd.epoch();
        let mut shadow = db.clone();
        for step in 0..6 {
            let delta = random_delta(&mut rng, &shadow);
            let before = fd.epoch();
            let admitted = fd.submit(delta.clone());
            fd.flush();
            let after = fd.epoch();
            // Everything from here to the un-mute is verification over the
            // shadow — it must not consume fault-site occurrences.
            fault::mute(true);
            match admitted {
                Err(_) => {
                    refused_total += 1;
                    assert_eq!(after, before, "seed {seed} step {step}: refused submit published");
                }
                Ok(()) => {
                    if after == before + 1 {
                        shadow.apply_delta(&delta).unwrap_or_else(|e| {
                            panic!("seed {seed} step {step}: serving committed, shadow: {e}")
                        });
                    } else {
                        assert_eq!(
                            after, before,
                            "seed {seed} step {step}: one batch, at most one epoch"
                        );
                        dropped_total += 1;
                    }
                }
            }
            // Reader view: pin the published snapshot and compare
            // bit-for-bit against a cold recompute over the shadow —
            // which tracks exactly the committed batches.
            let snap = fd.snapshot();
            assert_eq!(snap.epoch(), after);
            let got = fd.serving().query_at(&snap).unwrap();
            let want = FlatEngine.run(&shadow, &q).unwrap();
            assert_bit_identical(&want, &got, &format!("seed {seed} step {step}"), naggs);
            fault::mute(false);
        }

        // Heal: the faults clear, one last delta must flow end to end and
        // the accounting must close.
        fault::clear();
        let final_delta = Delta::insert("F", frow(1, 1, 11.0));
        fd.submit(final_delta.clone()).unwrap_or_else(|e| panic!("seed {seed}: healed: {e}"));
        fd.flush();
        shadow.apply_delta(&final_delta).unwrap();
        let stats = fd.stats();
        assert_eq!(stats.queued, 0, "seed {seed}: queue fully drains");
        assert_eq!(
            fd.epoch(),
            e0 + stats.batches_committed,
            "seed {seed}: final epoch == committed batches"
        );
        let want = FlatEngine.run(&shadow, &q).unwrap();
        let (_, got) = fd.query().unwrap();
        assert_bit_identical(&want, &got, &format!("seed {seed}: healed"), naggs);
        committed_total += stats.batches_committed;
    }
    // The schedules must genuinely exercise every outcome class.
    assert!(committed_total > 200, "committed {committed_total}: schedules too hostile");
    assert!(refused_total > 0, "no submit was ever refused across 200 schedules");
    assert!(dropped_total > 0, "no batch was ever dropped across 200 schedules");
}

/// Retry determinism. Same seed → same fault schedule → identical retry
/// counts, epochs, and result bits. Flush-per-submit pins the batch boundaries so the fault-site
/// occurrence indices are schedule-independent.
#[test]
fn seeded_retry_schedules_replay_identically() {
    let _guard = fault_lock();

    fn run(seed: u64) -> (u64, u64, u64, u64, Vec<BTreeMap<String, u64>>) {
        let db = snowflake(8);
        let q = query();
        fault::mute(true);
        let fd = FrontDoor::new(lmfao_seq(), &db, &q, chaos_config()).unwrap();
        fault::mute(false);
        fault::install(FaultPlan::new(seed).fail_with_probability("maintain-publish", 0.4));
        for i in 0..10i64 {
            fd.submit(Delta::insert("F", frow(i % 3, i % 2, i as f64))).unwrap();
            fd.flush();
        }
        fault::clear();
        let stats = fd.stats();
        let (epoch, result) = fd.query().unwrap();
        let digest = digest(&result, q.batch.len());
        (stats.retries, stats.batches_committed, stats.batches_failed, epoch, digest)
    }

    let first = run(7);
    let second = run(7);
    assert_eq!(first, second, "same seed must replay to identical stats and results");
    assert!(first.0 > 0, "the schedule never exercised a retry — weaken the seed check");
    assert_eq!(first.3, first.1, "final epoch equals committed batches (initial epoch 0)");
}

/// Injected admission faults refuse without publishing; injected drain
/// faults are transient and retried.
#[test]
fn injected_admission_refusals_never_publish_and_drain_faults_retry() {
    let _guard = fault_lock();
    let db = snowflake(6);
    let q = query();
    fault::mute(true);
    let fd = FrontDoor::new(lmfao_seq(), &db, &q, chaos_config()).unwrap();
    fault::mute(false);
    let e0 = fd.epoch();
    let mut shadow = db.clone();

    fault::install(FaultPlan::new(5).fail_at("queue-admit", 2).fail_at("writer-drain", 1));
    // First submit passes admission; its drain fails once, then retries.
    let d1 = Delta::insert("F", frow(2, 1, 60.0));
    shadow.apply_delta(&d1).unwrap();
    fd.submit(d1).unwrap();
    fd.flush();
    assert_eq!(fd.epoch(), e0 + 1);
    assert_eq!(fd.stats().retries, 1, "the injected drain fault cost one retry");

    // Second submit is refused at admission — never queued, never an epoch.
    let err = fd.submit(Delta::insert("F", frow(0, 1, 61.0))).unwrap_err();
    assert!(matches!(err, fdb::data::DataError::Injected(_)), "got {err:?}");
    fd.flush();
    assert_eq!(fd.epoch(), e0 + 1, "refused submit published an epoch");
    assert_eq!(fd.stats().rejected, 1);

    // Third flows cleanly.
    let d3 = Delta::insert("F", frow(1, 1, 62.0));
    shadow.apply_delta(&d3).unwrap();
    fd.submit(d3).unwrap();
    fd.flush();
    fault::clear();
    assert_eq!(fd.epoch(), e0 + 2);

    fault::mute(true);
    let want = FlatEngine.run(&shadow, &q).unwrap();
    let (_, got) = fd.query().unwrap();
    assert_bit_identical(&want, &got, "after refusals", q.batch.len());
    fault::mute(false);
}
