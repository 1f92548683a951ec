//! Chaos property suite for the transactional delta pipeline.
//!
//! Two layers:
//!
//! * **Always compiled** — delta edge cases (empty batches, insert+delete
//!   of the same row in one batch, mid-batch arity/type mismatches), the
//!   cost of the sites when compiled out (under 1 % of a maintained
//!   delta), and panic containment (a panic during maintenance surfaces
//!   as a structured [`DataError::WorkerPanic`], never a process abort).
//! * **`--features fault-injection`** — randomized fault schedules
//!   ([`fdb::data::fault::FaultPlan`]) against random delta streams
//!   across every engine composition. The invariant, checked after every
//!   delta: the apply either *succeeds* and agrees with a cold flat-engine
//!   recompute over an equivalently mutated shadow database, or *fails*
//!   and leaves the maintained database bit-identical — rows **and**
//!   [`Relation::data_id`]s — to the last good epoch, with `eval` still
//!   serving the last good result. Never a half-applied state.
//!
//! The fault plan is process-global (worker threads must see it), so
//! every test that installs one serializes on [`fault_lock`] and clears
//! the plan before releasing it.

use fdb::data::{AttrType, DataError, Database, Delta, Relation, Schema, Value};
use fdb::prelude::*;

mod common;

// ---------------------------------------------------------------------------
// Shared fixture: a small snowflake and a mixed aggregate batch
// ---------------------------------------------------------------------------

/// F(a, b, c, x) ⋈ D1(a, w, u) ⋈ D2(b, v), sized by `nf` fact rows.
/// Integer-valued measures so incremental and cold sums are bit-exact.
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
    batch.push(Aggregate::sum_prod("x", "u"));
    batch.push(Aggregate::count().by(&["c"]));
    batch.push(Aggregate::sum("x").by(&["c", "w"]));
    batch.push(Aggregate::sum("v").filtered("u", FilterOp::Ge(0.0)));
    AggQuery::new(&["F", "D1", "D2"], batch)
}

fn frow(a: i64, b: i64, x: f64) -> Vec<Value> {
    vec![Value::Int(a), Value::Int(b), Value::Int((a + b) % 3), Value::F64(x)]
}

/// Snapshot of every relation's rows and content id — the "epoch" the
/// rollback contract is stated in.
fn epoch(db: &Database) -> Vec<(String, Relation, u64)> {
    db.names()
        .iter()
        .map(|n| (n.clone(), db.get(n).unwrap().clone(), db.get(n).unwrap().data_id()))
        .collect()
}

fn assert_epoch(tag: &str, db: &Database, want: &[(String, Relation, u64)]) {
    assert_eq!(db.len(), want.len(), "{tag}: relation count");
    for (name, rel, id) in want {
        let got = db.get(name).unwrap_or_else(|_| panic!("{tag}: `{name}` missing"));
        assert_eq!(got, rel, "{tag}: `{name}` rows diverged from the last good epoch");
        assert_eq!(got.data_id(), *id, "{tag}: `{name}` data_id diverged");
    }
}

/// Serializes every test that installs a process-global fault plan — and
/// every test whose engine calls cross fault sites, which would otherwise
/// consume (and fail on) occurrences a concurrent chaos test scheduled.
fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

// ---------------------------------------------------------------------------
// Delta edge cases (feature-independent)
// ---------------------------------------------------------------------------

#[test]
fn empty_delta_batches_are_clean_no_ops() {
    let _guard = fault_lock();
    let db = snowflake(6);
    let q = query();
    let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
    let mut st = engine.prepare(&db, &q).unwrap();
    let before = epoch(st.database());
    let baseline = engine.eval(&st).unwrap();
    let got = engine.apply_delta(&mut st, &Delta::new("F")).unwrap();
    common::assert_results_match(&baseline, &got, "empty delta", q.batch.len(), 1e-12);
    assert_epoch("empty delta", st.database(), &before);
}

#[test]
fn insert_and_delete_of_the_same_row_cancel_within_a_batch() {
    let _guard = fault_lock();
    let db = snowflake(6);
    let q = query();
    let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
    let mut st = engine.prepare(&db, &q).unwrap();
    let mut shadow = db.clone();
    // Delete-of-just-inserted: the row never existed in the base, so the
    // sequential resolution must cancel it against the pending insert.
    let fresh = frow(2, 1, 99.0);
    let d = Delta::new("F").with_insert(fresh.clone()).with_delete(fresh);
    let got = engine.apply_delta(&mut st, &d).unwrap();
    shadow.apply_delta(&d).unwrap();
    let cold = FlatEngine.run(&shadow, &q).unwrap();
    common::assert_results_match(&cold, &got, "insert+delete cancel", q.batch.len(), 1e-9);
    assert_eq!(st.database().get("F").unwrap().len(), 6, "net row count unchanged");
    // Duplicate row: insert a row equal to an existing one, delete one
    // copy in the same batch — multiset semantics leave exactly one.
    let dup = st.database().get("F").unwrap().row_vec(0);
    let d = Delta::new("F").with_insert(dup.clone()).with_delete(dup);
    let got = engine.apply_delta(&mut st, &d).unwrap();
    shadow.apply_delta(&d).unwrap();
    let cold = FlatEngine.run(&shadow, &q).unwrap();
    common::assert_results_match(&cold, &got, "duplicate insert+delete", q.batch.len(), 1e-9);
    assert_eq!(st.database().get("F").unwrap().len(), 6);
}

#[test]
fn mid_batch_schema_mismatches_roll_back_completely() {
    let _guard = fault_lock();
    let db = snowflake(6);
    let q = query();
    let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
    let mut st = engine.prepare(&db, &q).unwrap();
    let before = epoch(st.database());
    let good = engine.eval(&st).unwrap();
    // A valid insert followed by an arity mismatch: the earlier row of
    // the same batch must not stick.
    let arity = Delta::new("F").with_insert(frow(1, 1, 8.0)).with_insert(vec![Value::Int(0)]);
    assert!(matches!(
        engine.apply_delta(&mut st, &arity),
        Err(DataError::ArityMismatch { expected: 4, got: 1 })
    ));
    assert_epoch("arity mismatch", st.database(), &before);
    // Type mismatch mid-batch.
    let ty = Delta::new("F").with_insert(frow(0, 0, 5.0)).with_insert(vec![
        Value::F64(0.0),
        Value::Int(0),
        Value::Int(0),
        Value::F64(1.0),
    ]);
    assert!(matches!(engine.apply_delta(&mut st, &ty), Err(DataError::TypeMismatch { .. })));
    assert_epoch("type mismatch", st.database(), &before);
    // Delete of an absent row after a valid insert in the same batch.
    let del = Delta::new("F").with_insert(frow(1, 0, 3.0)).with_delete(frow(2, 1, -77.0));
    assert!(matches!(engine.apply_delta(&mut st, &del), Err(DataError::Invalid(_))));
    assert_epoch("absent delete", st.database(), &before);
    // The maintained result still serves the last good epoch.
    common::assert_results_match(
        &good,
        &engine.eval(&st).unwrap(),
        "after rejected batches",
        q.batch.len(),
        1e-12,
    );
}

// ---------------------------------------------------------------------------
// Cost of the sites when compiled out (feature-independent)
// ---------------------------------------------------------------------------

/// Without the feature every site must be free: 8 sites (a generous bound
/// on those one maintained delta crosses — validate, commit, per-view
/// walk, publish, cache admit/evict) × the measured cost of one
/// `fault::check` stay under 1 % of one maintained single-row
/// `apply_delta`. With the feature on the sites are real work; the
/// numbers are computed but not bounded.
#[test]
fn fault_sites_cost_under_one_percent_of_a_delta_when_compiled_out() {
    use fdb::data::fault;
    use std::hint::black_box;
    use std::time::Instant;
    let _guard = fault_lock();
    const CALLS: u64 = 200_000;
    let timed_loop = |checked: bool| -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..CALLS {
            if checked {
                fault::check("overhead-probe").expect("no fault plan installed");
            }
            acc = acc.wrapping_add(black_box(i));
        }
        black_box(acc);
        t.elapsed().as_nanos() as f64
    };
    // Best of five alternating passes per arm: a preempted pass can only
    // inflate one arm, and the minimum discards it.
    let (mut base, mut checked) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        base = base.min(timed_loop(false));
        checked = checked.min(timed_loop(true));
    }
    // Both arms compile to the same loop when the sites are out, so the
    // difference is timer noise in either direction: clamp at zero.
    let ns_per_check = ((checked - base) / CALLS as f64).max(0.0);

    let db = snowflake(64);
    let q = query();
    let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
    let mut st = engine.prepare(&db, &q).unwrap();
    let updates = 64;
    let t = Instant::now();
    for i in 0..updates {
        let d = Delta::insert("F", frow(i % 3, i % 2, i as f64));
        engine.apply_delta(&mut st, &d).unwrap();
    }
    let apply_delta_ns = t.elapsed().as_nanos() as f64 / updates as f64;
    assert!(apply_delta_ns > 0.0);

    if !fault::injection_enabled() {
        let frac = 8.0 * ns_per_check / apply_delta_ns;
        assert!(
            frac < 0.01,
            "compiled-out fault sites cost {:.4}% of a delta (≥1%): {ns_per_check:.3} ns/check, \
             {apply_delta_ns:.0} ns/delta",
            frac * 100.0
        );
    }
}

// ---------------------------------------------------------------------------
// Panic containment (feature-independent)
// ---------------------------------------------------------------------------

/// An engine whose `run` always panics — stands in for any internal
/// invariant violation inside worker code.
struct PanickyEngine;

impl Engine for PanickyEngine {
    fn name(&self) -> &'static str {
        "panicky"
    }

    fn run(&self, _db: &Database, _q: &AggQuery) -> Result<BatchResult, DataError> {
        panic!("engine invariant violated")
    }
}

impl MaintainableEngine for PanickyEngine {}

#[test]
fn worker_panics_surface_as_structured_errors_not_aborts() {
    let _guard = fault_lock();
    let db = snowflake(8);
    let q = query();
    // The maintenance wrapper: a panic mid-maintenance rolls the state's
    // database back to the pre-delta epoch and returns Err. (Panics inside
    // morsel workers are pinned by `fdb-core`'s morsel unit tests and the
    // chaos panel's `morsel-exec` schedules.)
    let mut st = MaintState::recompute(db.clone(), q.clone());
    let before = epoch(st.database());
    match PanickyEngine.apply_delta(&mut st, &Delta::insert("F", frow(0, 0, 1.0))) {
        Err(DataError::WorkerPanic(msg)) => {
            assert!(msg.contains("engine invariant violated"), "payload preserved: {msg}")
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert_epoch("after contained panic", st.database(), &before);
}

// ---------------------------------------------------------------------------
// Randomized fault schedules (the chaos layer; needs `fault-injection`)
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-injection")]
mod chaos {
    use super::*;
    use fdb::data::fault::{self, FaultPlan};
    use fdb::lmfao::{stats_from_result, SufficientStats};
    /// splitmix64 — the same tiny deterministic generator the fault plans
    /// use, re-derived here so delta streams reproduce from the seed.
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
    }

    /// Every named site the pipeline checks, across all layers.
    const SITES: &[&str] = &[
        "delta-validate",
        "delta-commit",
        "maintain-view",
        "maintain-publish",
        "morsel-exec",
        "cache-admit",
        "cache-evict",
        "csv-ingest",
    ];

    /// A random schedule: 1–3 rules over random sites, mixing pinned
    /// occurrences, probabilistic firing, errors, and panics.
    fn random_plan(rng: &mut Rng, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        for _ in 0..1 + rng.below(3) {
            let site = SITES[rng.below(SITES.len() as u64) as usize];
            let panic = rng.below(2) == 0;
            plan = match (rng.below(2) == 0, panic) {
                (true, false) => plan.fail_at(site, 1 + rng.below(4)),
                (true, true) => plan.panic_at(site, 1 + rng.below(4)),
                (false, false) => plan.fail_with_probability(site, 0.25),
                (false, true) => plan.panic_with_probability(site, 0.25),
            };
        }
        plan
    }

    /// A random valid delta against the current shadow: inserts stay
    /// inside the prepare-time ranges, deletes pick existing rows.
    fn random_delta(rng: &mut Rng, shadow: &Database) -> Delta {
        match rng.below(4) {
            // Fact insert (possibly a multi-row batch).
            0 => {
                let mut d = Delta::new("F");
                for _ in 0..1 + rng.below(2) {
                    d = d.with_insert(frow(
                        rng.below(3) as i64,
                        rng.below(2) as i64,
                        rng.below(9) as f64,
                    ));
                }
                d
            }
            // Fact delete of an existing row.
            1 => {
                let f = shadow.get("F").unwrap();
                if f.is_empty() {
                    return Delta::insert("F", frow(0, 0, 1.0));
                }
                Delta::delete("F", f.row_vec(rng.below(f.len() as u64) as usize))
            }
            // Mixed fact batch: insert + delete in one delta.
            2 => {
                let f = shadow.get("F").unwrap();
                let ins = frow(rng.below(3) as i64, rng.below(2) as i64, rng.below(9) as f64);
                if f.is_empty() {
                    return Delta::insert("F", ins);
                }
                Delta::new("F")
                    .with_insert(ins)
                    .with_delete(f.row_vec(rng.below(f.len() as u64) as usize))
            }
            // Dimension churn: delete + reinsert a D2 row (keeps join
            // keys covered so cold runs stay comparable).
            _ => {
                let d2 = shadow.get("D2").unwrap();
                let row = d2.row_vec(rng.below(d2.len() as u64) as usize);
                Delta::new("D2").with_delete(row.clone()).with_insert(row)
            }
        }
    }

    /// `morsel-lmfao` cuts even these few-row roots into two-row morsels
    /// on three threads, so `morsel-exec` fires inside root morsels and
    /// task-parallel subtrees.
    fn chaos_panel() -> Vec<(&'static str, Box<dyn MaintainableEngine>)> {
        let threaded = EngineConfig { threads: 2, ..Default::default() };
        let morsels = EngineConfig { threads: 3, morsel_rows: 2, ..Default::default() };
        vec![
            ("flat", Box::new(FlatEngine)),
            ("lmfao", Box::new(LmfaoEngine::with_config(threaded))),
            ("morsel-lmfao", Box::new(LmfaoEngine::with_config(morsels))),
            ("dispatch", Box::new(DispatchEngine::new())),
        ]
    }

    /// One chaos run: a fresh state, a random fault schedule, a random
    /// delta stream; after every delta the engine either agrees with the
    /// cold recompute or has rolled back bit-identically, and a read
    /// through the engine either agrees too or fails with a typed error.
    fn chaos_run(name: &str, engine: &dyn MaintainableEngine, seed: u64) -> (u64, u64) {
        let mut rng = Rng(seed);
        let db = snowflake(4 + rng.below(8) as usize);
        let q = query();
        fault::mute(true);
        let mut st = engine.prepare(&db, &q).expect("prepare under mute");
        fault::mute(false);
        let mut shadow = db.clone();
        let mut last_good = epoch(st.database());
        let (mut oks, mut errs) = (0u64, 0u64);
        for step in 0..5 {
            let d = random_delta(&mut rng, &shadow);
            let tag = format!("{name} seed {seed} step {step}");
            let applied = engine.apply_delta(&mut st, &d);
            // Verification runs muted: it must neither fire sites nor
            // consume scheduled occurrences.
            fault::mute(true);
            match applied {
                Ok(got) => {
                    oks += 1;
                    shadow.apply_delta(&d).unwrap_or_else(|e| panic!("{tag}: shadow: {e}"));
                    let cold = FlatEngine.run(&shadow, &q).expect("cold run");
                    common::assert_results_match(&cold, &got, &tag, q.batch.len(), 1e-9);
                    last_good = epoch(st.database());
                }
                Err(_) => {
                    errs += 1;
                    assert_epoch(&tag, st.database(), &last_good);
                    // The recovered state still serves the last epoch.
                    let eval = engine
                        .eval(&st)
                        .unwrap_or_else(|e| panic!("{tag}: eval after rollback: {e}"));
                    let cold = FlatEngine.run(&shadow, &q).expect("cold run");
                    common::assert_results_match(&cold, &eval, &tag, q.batch.len(), 1e-9);
                }
            }
            // A read through the engine itself, unmuted: a fault in its
            // workers must surface as a typed error, never an abort or a
            // wrong answer.
            fault::mute(false);
            let read = engine.run(st.database(), &q);
            fault::mute(true);
            match read {
                Ok(got) => {
                    let cold = FlatEngine.run(&shadow, &q).expect("cold run");
                    common::assert_results_match(&cold, &got, &tag, q.batch.len(), 1e-9);
                }
                Err(DataError::Injected(_) | DataError::WorkerPanic(_)) => {}
                Err(e) => panic!("{tag}: read failed with an untyped error: {e}"),
            }
            fault::mute(false);
        }
        (oks, errs)
    }

    /// 200 seeds per engine composition. Every seed reruns exactly from
    /// its number: the delta stream and the fault schedule both derive
    /// from splitmix64, nothing ambient.
    #[test]
    fn randomized_fault_schedules_never_leave_half_applied_state() {
        let _guard = fault_lock();
        for (name, engine) in chaos_panel() {
            let (mut oks, mut errs, mut morsel_hits) = (0u64, 0u64, 0u64);
            for seed in 0..200u64 {
                let mut rng = Rng(seed ^ 0xC0FFEE);
                fault::install(random_plan(&mut rng, seed));
                let (o, e) = chaos_run(name, engine.as_ref(), seed);
                oks += o;
                errs += e;
                morsel_hits += fault::hit_count("morsel-exec");
                fault::clear();
            }
            // The schedules must actually exercise both outcomes.
            assert!(oks > 0, "{name}: no delta ever succeeded across 200 runs");
            assert!(errs > 0, "{name}: no fault ever fired across 200 runs");
            if name == "morsel-lmfao" {
                assert!(morsel_hits > 0, "{name}: no fault ever fired inside a morsel");
            }
        }
    }

    /// A fault *after* the maintained path was re-admitted to the view
    /// cache must not leave entries keyed by rolled-back content ids: the
    /// wrapper invalidates them eagerly (cache hygiene, not correctness —
    /// `data_id`s are never reused, so a stale entry could only waste
    /// memory, never serve wrong data).
    #[test]
    fn rolled_back_deltas_do_not_leave_stale_maintained_views_cached() {
        let _guard = fault_lock();
        let db = snowflake(6);
        let q = query();
        let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
        fault::mute(true);
        let mut st = engine.prepare(&db, &q).unwrap();
        fault::mute(false);
        let before = epoch(st.database());
        let invalidated_before = fdb::lmfao::ViewCache::global().stats().invalidated;
        fault::install(FaultPlan::new(1).fail_at("maintain-publish", 1));
        let err = engine.apply_delta(&mut st, &Delta::insert("F", frow(1, 1, 4.0))).unwrap_err();
        assert!(matches!(err, DataError::Injected(_)), "got {err:?}");
        fault::clear();
        assert_epoch("publish fault", st.database(), &before);
        let invalidated_after = fdb::lmfao::ViewCache::global().stats().invalidated;
        assert!(
            invalidated_after > invalidated_before,
            "entries admitted under the rolled-back id must be dropped \
             ({invalidated_before} -> {invalidated_after})"
        );
        // And the same delta applies cleanly afterwards.
        let mut shadow = db.clone();
        let d = Delta::insert("F", frow(1, 1, 4.0));
        let got = engine.apply_delta(&mut st, &d).unwrap();
        shadow.apply_delta(&d).unwrap();
        let cold = FlatEngine.run(&shadow, &q).unwrap();
        common::assert_results_match(&cold, &got, "post-rollback reapply", q.batch.len(), 1e-9);
    }

    /// The maintained structure holds no relation handle, so rollback
    /// cannot lean on one: a `delta-commit` fault on a 1-row fact insert
    /// (the commit rolls back before maintenance runs) and a
    /// `maintain-view` fault midway up a dimension delta's path (the
    /// wrapper rebuilds from the restored database) both restore the
    /// epoch bit-exactly — rows, `data_id`s and the epoch counter — and
    /// the next delta is maintained in place and agrees with a cold run.
    #[test]
    fn rollback_is_exact_without_a_held_relation() {
        let _guard = fault_lock();
        let db = snowflake(6);
        let q = query();
        let engine = LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() });
        fault::mute(true);
        let mut st = engine.prepare(&db, &q).unwrap();
        fault::mute(false);
        let mut shadow = db.clone();
        let cases = [
            ("delta-commit", 1, Delta::insert("F", frow(1, 0, 2.0))),
            // The second `maintain-view` occurrence is the root step: the
            // owner's views are already merged when it fires.
            (
                "maintain-view",
                2,
                Delta::insert("D1", vec![Value::Int(2), Value::Int(0), Value::F64(1.0)]),
            ),
        ];
        for (site, nth, d) in cases {
            let (before, before_epoch) = (epoch(st.database()), st.epoch());
            fault::install(FaultPlan::new(7).fail_at(site, nth));
            let err = engine.apply_delta(&mut st, &d).unwrap_err();
            fault::clear();
            assert!(matches!(err, DataError::Injected(_)), "{site}: got {err:?}");
            assert_epoch(site, st.database(), &before);
            assert_eq!(st.epoch(), before_epoch, "{site}: epoch counter restored");
            let cold = FlatEngine.run(&shadow, &q).unwrap();
            let eval = engine.eval(&st).unwrap();
            common::assert_results_match(&cold, &eval, site, q.batch.len(), 1e-9);
            // The next delta is folded in along the path, not rebuilt.
            let maintained = fdb::lmfao::ViewCache::global().stats().views_maintained;
            let got = engine.apply_delta(&mut st, &d).unwrap();
            assert!(
                fdb::lmfao::ViewCache::global().stats().views_maintained > maintained,
                "{site}: the retried delta must be maintained in place"
            );
            assert!(!st.is_recompute(), "{site}: still maintaining");
            shadow.apply_delta(&d).unwrap();
            let cold = FlatEngine.run(&shadow, &q).unwrap();
            common::assert_results_match(
                &cold,
                &got,
                &format!("{site} retry"),
                q.batch.len(),
                1e-9,
            );
        }
    }

    /// `a` and `b` hold the same numbers, bit for bit, in the same places.
    fn same_stats_bits(a: &SufficientStats, b: &SufficientStats) -> bool {
        fn bits<K: Ord + Copy>(m: &std::collections::HashMap<K, f64>) -> Vec<(K, u64)> {
            let mut v: Vec<(K, u64)> = m.iter().map(|(k, x)| (*k, x.to_bits())).collect();
            v.sort_unstable();
            v
        }
        let scalars = |s: &SufficientStats| -> Vec<u64> {
            [s.count].iter().chain(&s.sum).chain(&s.q).map(|x| x.to_bits()).collect()
        };
        let groups = |s: &SufficientStats| -> Vec<Vec<(i64, u64)>> {
            s.cat_counts.iter().chain(s.cat_cont_sums.iter().flatten()).map(bits).collect()
        };
        let pairs = |s: &SufficientStats| {
            let mut v: Vec<_> = s.cat_pair_counts.iter().map(|(k, m)| (*k, bits(m))).collect();
            v.sort_unstable();
            v
        };
        scalars(a) == scalars(b) && groups(a) == groups(b) && pairs(a) == pairs(b)
    }

    /// `OnlineRidge` patches its statistics from each delta's change list,
    /// so after a failed delta — whose rollback rebuilt the state and left
    /// an answer that is a cold recompute, possibly differing from the
    /// maintained one in the last bits of a real-valued sum — it must
    /// re-read them in full. Faults at `maintain-view` and
    /// `maintain-publish` over real-valued fact inserts and deletes: after
    /// every delta, `Ok` or `Err`, the statistics equal `stats_from_result`
    /// of the state's answer bit for bit.
    #[test]
    fn online_ridge_stats_follow_the_answer_through_rollbacks() {
        let _guard = fault_lock();
        let (cont, cat) = (["u", "v", "x"], ["c", "w"]);
        let (mut errs, mut resynced) = (0u64, 0u64);
        for seed in 0..40u64 {
            let mut rng = Rng(seed ^ 0x5EED);
            // With the view cache on, the rebuild would be served the last
            // good epoch's maintained views; off, it recomputes cold.
            let cfg = EngineConfig { threads: 1, view_cache_bytes: 0, ..Default::default() };
            let engine = LmfaoEngine::with_config(cfg);
            fault::mute(true);
            let mut online = fdb::ml::OnlineRidge::new(
                &snowflake(6),
                &["F", "D1", "D2"],
                &cont,
                &cat,
                Box::new(engine),
                fdb::ml::linreg::RidgeConfig::default(),
            )
            .expect("prepare under mute");
            fault::mute(false);
            fault::install(
                FaultPlan::new(seed)
                    .fail_with_probability("maintain-view", 0.15)
                    .fail_with_probability("maintain-publish", 0.15),
            );
            let mut live: Vec<Vec<Value>> = Vec::new();
            for step in 0..12 {
                let tag = format!("seed {seed} step {step}");
                let delete = live.len() > 1 && rng.below(2) == 0;
                let row = if delete {
                    live[rng.below(live.len() as u64) as usize].clone()
                } else {
                    // Large values make a delete drop low bits of the
                    // maintained sums that a cold recompute keeps.
                    let scale = if rng.below(2) == 0 { 1e12 } else { 1.0 };
                    let x = scale * (rng.below(1000) as f64 * 0.37 + 0.1);
                    frow(rng.below(3) as i64, rng.below(2) as i64, x)
                };
                let delta = if delete {
                    Delta::delete("F", row.clone())
                } else {
                    Delta::insert("F", row.clone())
                };
                let before = online.stats().unwrap();
                let applied = online.apply_delta(&delta);
                fault::mute(true);
                let after = online.stats().unwrap();
                let answer = online.answer().expect("the maintained answer");
                let full = stats_from_result(&answer, &cont, &cat).unwrap();
                assert!(same_stats_bits(&after, &full), "{tag}: stats diverged from the answer");
                match applied {
                    Ok(()) if delete => {
                        live.swap_remove(live.iter().position(|r| *r == row).unwrap());
                    }
                    Ok(()) => live.push(row),
                    Err(_) => {
                        errs += 1;
                        resynced += u64::from(!same_stats_bits(&before, &after));
                    }
                }
                fault::mute(false);
            }
            fault::clear();
        }
        assert!(errs > 0, "no fault ever fired");
        // The case the re-read exists for must actually occur: a rollback
        // whose rebuilt answer differs in its bits from the maintained one.
        assert!(resynced > 0, "no rollback ever changed a bit of the statistics ({errs} errors)");
    }

    /// CSV ingest faults surface as clean typed errors (never panics —
    /// the site demotes), and hit accounting tracks them.
    #[test]
    fn csv_ingest_faults_are_clean_typed_errors() {
        let _guard = fault_lock();
        let schema = Schema::of(&[("k", AttrType::Int), ("x", AttrType::Double)]);
        let bytes = b"1,1.5\n2,2.5\n3,3.5\n";
        fault::install(FaultPlan::new(9).panic_at("csv-ingest", 2));
        let err = fdb::data::csv::read_csv(schema.clone(), bytes).unwrap_err();
        assert!(matches!(err, DataError::Injected(_)), "panic demoted: {err:?}");
        assert_eq!(fault::hit_count("csv-ingest"), 1);
        fault::clear();
        let rel = fdb::data::csv::read_csv(schema, bytes).unwrap();
        assert_eq!(rel.len(), 3);
    }
}
