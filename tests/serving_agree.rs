//! Concurrent serving correctness: R reader threads issue queries against
//! a `ServingEngine` while a writer thread streams deltas through it. The
//! contract, for **every** engine composition on dish, retailer, and zipf
//! snowflakes: a reader's `(epoch, result)` pair is **bit-identical** to a
//! cold single-threaded run of the same query over the equivalently
//! mutated database at exactly the epoch the reader pinned — no torn
//! snapshots, no stale cache hits across epoch boundaries, no float drift
//! from racing maintenance.
//!
//! Bit-identity (not tolerance) is achievable because each engine is
//! compared against *its own* cold runs and every aggregate below is
//! integer-valued or dyadic (dish prices are whole units), so ring merges
//! are exact in f64 regardless of summation order.

use fdb::data::{Database, Delta, Value};
use fdb::lmfao::serve::ServingEngine;
use fdb::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

type DynEngine = Box<dyn MaintainableEngine + Send + Sync>;

/// The maintainable-engine panel (mirrors `tests/delta_agree.rs`): every
/// backend plus dispatch, and LMFAO and dispatch at two-row root morsels
/// on three threads — readers then run tree-merged root morsels.
fn panel() -> Vec<(String, DynEngine)> {
    let seq = EngineConfig { threads: 1, ..Default::default() };
    let morsels = EngineConfig { threads: 3, morsel_rows: 2, ..Default::default() };
    vec![
        ("flat".into(), Box::new(FlatEngine)),
        ("factorized".into(), Box::new(FactorizedEngine::new())),
        ("lmfao".into(), Box::new(LmfaoEngine::with_config(seq))),
        (
            "lmfao-hash".into(),
            Box::new(LmfaoEngine::with_config(EngineConfig { dense_limit: 0, ..seq })),
        ),
        ("dispatch".into(), Box::new(DispatchEngine::new())),
        ("morsel-lmfao".into(), Box::new(LmfaoEngine::with_config(morsels))),
        ("morsel-dispatch".into(), Box::new(DispatchEngine::with_config(morsels))),
    ]
}

/// Exact equality — same group attrs, same represented keys, same bits.
fn assert_bit_identical(expect: &BatchResult, got: &BatchResult, tag: &str, naggs: usize) {
    for i in 0..naggs {
        assert_eq!(expect.groups[i], got.groups[i], "{tag}: agg {i}: group attrs");
        assert_eq!(
            expect.grouped(i).len(),
            got.grouped(i).len(),
            "{tag}: agg {i}: represented key count"
        );
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

/// For each panel engine: precompute the cold single-threaded result at
/// every epoch (the same engine over an equivalently mutated shadow
/// database), then serve with `readers` concurrent reader threads racing
/// one writer that streams `deltas`. Every reader assertion keys on the
/// epoch its snapshot pinned.
fn serve_and_check(db: &Database, q: &AggQuery, deltas: &[Delta], readers: usize) {
    for (name, engine) in panel() {
        // Cold per-epoch truth, before any serving starts. The shadow's
        // relations get content ids distinct from the serving copies, so
        // these runs can never share (or pollute) view-cache entries with
        // the concurrent phase below.
        let mut shadow = db.clone();
        let mut expected =
            vec![engine.run(&shadow, q).unwrap_or_else(|e| panic!("{name}: cold 0: {e}"))];
        for (i, d) in deltas.iter().enumerate() {
            shadow.apply_delta(d).unwrap_or_else(|e| panic!("{name}: shadow {i}: {e}"));
            expected.push(engine.run(&shadow, q).unwrap_or_else(|e| panic!("{name}: cold: {e}")));
        }

        let serving =
            ServingEngine::new(engine, db, q).unwrap_or_else(|e| panic!("{name}: prepare: {e}"));
        let e0 = serving.epoch();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (name, serving, expected, done) = (&name, &serving, &expected, &done);
            for r in 0..readers {
                s.spawn(move || {
                    let mut served = 0usize;
                    // Keep reading until the writer finished AND this
                    // reader verified the stream a few times — so every
                    // reader provably races live publications.
                    while !done.load(Ordering::Acquire) || served < 3 {
                        let (epoch, got) =
                            serving.query().unwrap_or_else(|e| panic!("{name} r{r}: {e}"));
                        let idx = (epoch - e0) as usize;
                        assert!(idx < expected.len(), "{name} r{r}: epoch {epoch} out of range");
                        assert_bit_identical(
                            &expected[idx],
                            &got,
                            &format!("{name} reader {r} epoch {epoch}"),
                            got.groups.len(),
                        );
                        served += 1;
                    }
                });
            }
            s.spawn(move || {
                for (i, d) in deltas.iter().enumerate() {
                    serving.apply_delta(d).unwrap_or_else(|e| panic!("{name} delta {i}: {e}"));
                    std::thread::yield_now();
                }
                done.store(true, Ordering::Release);
            });
        });

        assert_eq!(serving.epoch(), e0 + deltas.len() as u64, "{name}: every delta published");
        let (epoch, last) = serving.query().unwrap();
        assert_eq!(epoch, e0 + deltas.len() as u64);
        assert_bit_identical(
            expected.last().unwrap(),
            &last,
            &format!("{name} final epoch"),
            q.batch.len(),
        );
        let stats = serving.stats();
        assert_eq!(stats.deltas_applied, deltas.len() as u64);
        assert_eq!(stats.deltas_rejected, 0, "{name}: no delta may fail in this stream");
        assert!(stats.queries > (readers * 3) as u64);
    }
}

#[test]
fn dish_serving_matches_cold_runs_at_every_pinned_epoch() {
    let db = fdb::datasets::dish::dish_database();
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count());
    batch.push(Aggregate::sum("price"));
    batch.push(Aggregate::count().by(&["customer"]));
    batch.push(Aggregate::sum("price").by(&["day", "customer"]));
    let q = AggQuery::new(&["Orders", "Dish", "Items"], batch);
    let dish_row = |d: i64, i: i64| vec![Value::Int(d), Value::Int(i)];
    let order_row = db.get("Orders").unwrap().row_vec(0);
    let deltas = vec![
        Delta::insert("Orders", order_row.clone()),
        Delta::insert("Dish", dish_row(0, 3)),
        Delta::delete("Orders", order_row),
        Delta::new("Dish").with_insert(dish_row(1, 0)).with_delete(dish_row(0, 3)),
        Delta::insert("Items", db.get("Items").unwrap().row_vec(1)),
    ];
    serve_and_check(&db, &q, &deltas, 3);
}

#[test]
fn retailer_serving_matches_cold_runs_at_every_pinned_epoch() {
    let ds = fdb::datasets::retailer(fdb::datasets::RetailerConfig::tiny());
    let rels = ds.relation_refs();
    // Integer-valued aggregates (counts; `rain` is a 0/1 flag): exact in
    // f64 under every merge order, so bit-identity is well-defined even
    // through the root-morsel tree merges.
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count());
    batch.push(Aggregate::sum("rain"));
    batch.push(Aggregate::count().by(&["category"]));
    batch.push(Aggregate::count().by(&["rain", "category"]));
    let q = AggQuery::new(&rels, batch);
    let fact = ds.db.get("Inventory").unwrap();
    let item = ds.db.get("Item").unwrap();
    let deltas = vec![
        Delta::insert("Inventory", fact.row_vec(0)),
        Delta::new("Inventory")
            .with_insert(fact.row_vec(1))
            .with_insert(fact.row_vec(2))
            .with_delete(fact.row_vec(0)),
        Delta::delete("Item", item.row_vec(0)),
        Delta::insert("Item", item.row_vec(0)),
    ];
    serve_and_check(&ds.db, &q, &deltas, 3);
}

#[test]
fn zipf_serving_matches_cold_runs_at_every_pinned_epoch() {
    let ds = fdb::datasets::zipf_snowflake(fdb::datasets::ZipfConfig {
        fact_rows: 300,
        dim_rows: 8,
        skew: 2.0,
        seed: 7,
    });
    let rels = ds.relation_refs();
    // Counts only (plain, grouped, filtered): the zipf measures are full-
    // precision floats whose sums depend on order, but counts stay
    // integer-valued — exact in f64 under every merge order.
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count());
    batch.push(Aggregate::count().by(&["grp"]));
    batch.push(Aggregate::count().filtered("v", FilterOp::Ge(0.0)));
    batch.push(Aggregate::count().filtered("a", FilterOp::Ge(0.0)).by(&["grp"]));
    let q = AggQuery::new(&rels, batch);
    let fact = ds.db.get("Fact").unwrap();
    let deltas = vec![
        Delta::insert("Fact", fact.row_vec(0)),
        Delta::insert("Fact", fact.row_vec(10)),
        Delta::delete("Fact", fact.row_vec(20)),
        Delta::insert("DimB", vec![Value::Int(3), Value::F64(1.0)]),
        Delta::new("Fact").with_insert(fact.row_vec(5)).with_delete(fact.row_vec(5)),
    ];
    serve_and_check(&ds.db, &q, &deltas, 3);
}
