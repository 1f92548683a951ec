//! Cache-invalidation races under concurrent serving: one writer thread
//! refreshes `data_id`s via deltas (including failing deltas, whose
//! rollback re-issues pre-delta ids and invalidates post-delta cache
//! entries) while N reader threads hammer the global `SortCache` and —
//! through ad-hoc engine runs on their pinned snapshots — the global
//! `ViewCache`.
//!
//! The invariant: **no stale hit ever crosses an epoch boundary.** A
//! reader pinned at epoch *e* must get sorted views and query results
//! computed from exactly the relations of *e*, no matter how many epochs
//! the writer publishes (or rolls back) meanwhile. Both caches key on
//! `data_id` nonces, so this is the discipline the striped rewrite must
//! not have broken.
//!
//! The `--features fault-injection` variant replays the same race with
//! the PR 7 `cache-admit`/`cache-evict` sites firing probabilistically —
//! admissions refused at random, eviction pressure injected mid-insert —
//! and demands the same exactness: the caches are transparent, so chaos
//! in them may cost rescans but never correctness.

use fdb::data::{AttrType, Database, Delta, Relation, Schema, SortCache, Value};
use fdb::lmfao::serve::ServingEngine;
use fdb::prelude::*;

/// R(k, g, x): `k` unique per row, `g` a small categorical, integer `x`
/// values so every aggregate is exact in f64.
fn db(n: i64) -> Database {
    let mut db = Database::new();
    let mut r = Relation::new(Schema::of(&[
        ("k", AttrType::Int),
        ("g", AttrType::Categorical),
        ("x", AttrType::Double),
    ]));
    for k in 0..n {
        r.push_row(&[Value::Int(k), Value::Int(k % 4), Value::F64((k % 7) as f64)]).unwrap();
    }
    db.add("R", r);
    db
}

fn query() -> AggQuery {
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count());
    batch.push(Aggregate::count().by(&["g"]));
    batch.push(Aggregate::sum("x"));
    AggQuery::new(&["R"], batch)
}

/// The race: `readers` threads pin snapshots and check both caches
/// against them while the writer streams `rounds` deltas — one fresh row
/// per committed epoch, with every 5th delta an invalid one that must
/// roll back (exercising `invalidate_id` concurrently with reader hits).
fn run_race(readers: usize, rounds: i64) {
    let n0 = 64i64;
    let serving = ServingEngine::new(
        LmfaoEngine::with_config(EngineConfig { threads: 1, ..Default::default() }),
        &db(n0),
        &query(),
    )
    .unwrap();
    let e0 = serving.epoch();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let (serving, done) = (&serving, &done);
        for _ in 0..readers {
            s.spawn(move || {
                let mut checks = 0usize;
                while !done.load(std::sync::atomic::Ordering::Acquire) || checks < 5 {
                    // Pin an epoch; everything below must reflect it alone.
                    let snap = serving.snapshot();
                    let rel = snap.database().get("R").unwrap();
                    let rows = rel.len();
                    // SortCache: a stale cross-epoch hit would surface as
                    // a sorted view of the wrong length or content sum.
                    let sorted = SortCache::global().sorted_by(rel, &[0]);
                    assert_eq!(sorted.len(), rows, "sorted view is of the pinned epoch");
                    assert!(sorted.int_col(0).windows(2).all(|w| w[0] <= w[1]));
                    assert_eq!(
                        sorted.int_col(0).iter().sum::<i64>(),
                        rel.int_col(0).iter().sum::<i64>(),
                        "sorted view holds exactly the pinned rows"
                    );
                    // ViewCache (through an ad-hoc engine run on the pin;
                    // the served answer itself runs no engine): each
                    // committed epoch appends exactly one row, so the count
                    // at the pinned epoch is n0 + (epoch - e0) — a stale
                    // view hit under a newer or rolled-back id breaks this
                    // exactly.
                    let epoch = snap.epoch();
                    let got = serving.query_adhoc(&snap, &query()).unwrap();
                    assert_eq!(
                        got.scalar(0),
                        (n0 + (epoch - e0) as i64) as f64,
                        "query result is of the pinned epoch {epoch}"
                    );
                    let by_g: f64 = (0..4)
                        .map(|g| got.grouped(1).get([g].as_slice()).copied().unwrap_or(0.0))
                        .sum();
                    assert_eq!(by_g, got.scalar(0), "grouped counts partition the pinned rows");
                    // The answer the writer maintained for this pin is the
                    // same, bit for bit (every measure is an integer).
                    let served = serving.query_at(&snap).unwrap();
                    for i in 0..got.values.len() {
                        assert_eq!(served.groups[i], got.groups[i]);
                        assert_eq!(served.grouped(i).len(), got.grouped(i).len());
                        for (k, v) in got.grouped(i) {
                            assert_eq!(
                                served.grouped(i).get(k).map(|x| x.to_bits()),
                                Some(v.to_bits()),
                                "served agg {i} key {k:?} at epoch {epoch}"
                            );
                        }
                    }
                    checks += 1;
                }
            });
        }
        s.spawn(move || {
            for i in 0..rounds {
                if i % 5 == 4 {
                    // An invalid delta: must roll back, invalidate, and
                    // leave the published epoch untouched.
                    let bad =
                        Delta::delete("R", vec![Value::Int(-1), Value::Int(0), Value::F64(0.0)]);
                    assert!(serving.apply_delta(&bad).is_err());
                } else {
                    let k = n0 + i;
                    serving
                        .apply_delta(&Delta::insert(
                            "R",
                            vec![Value::Int(k), Value::Int(k % 4), Value::F64((k % 7) as f64)],
                        ))
                        .unwrap();
                }
                std::thread::yield_now();
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        });
    });
    let committed = rounds - rounds / 5;
    assert_eq!(serving.epoch(), e0 + committed as u64, "only committed deltas published");
    assert_eq!(serving.query().unwrap().1.scalar(0), (n0 + committed) as f64);
}

#[test]
fn no_stale_cache_hit_crosses_an_epoch_boundary() {
    run_race(4, 40);
}

#[cfg(feature = "fault-injection")]
mod chaos {
    use super::*;
    use fdb::data::fault::{self, FaultPlan};

    /// The same race under injected cache chaos: admissions refused and
    /// evictions forced at random in both global caches' admit paths.
    /// Correctness must be untouched — a cache that loses entries only
    /// costs rescans.
    #[test]
    fn cache_chaos_never_leaks_across_epochs() {
        fault::install(
            FaultPlan::new(0xCAFE)
                .fail_with_probability("cache-admit", 0.5)
                .fail_with_probability("cache-evict", 0.5),
        );
        let out = std::panic::catch_unwind(|| run_race(4, 25));
        let admits = fault::hit_count("cache-admit");
        let evicts = fault::hit_count("cache-evict");
        fault::clear();
        out.unwrap();
        assert!(admits + evicts > 0, "the chaos sites must actually have fired");
    }
}
