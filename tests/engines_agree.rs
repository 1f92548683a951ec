//! Cross-backend agreement through the unified `Engine` trait.
//!
//! The same `AggQuery` values are pushed through the flat (materialized
//! join), factorized (fused leapfrog), and LMFAO (shared views) backends —
//! on the paper's dish example, on the retailer dataset, and on randomized
//! snowflake databases — and must produce identical groups and (up to
//! float round-off) identical values. The F-IVM backend joins the panel on
//! its covariance-shaped fragment, streamed tuple-by-tuple.

use fdb::data::{AttrType, Database, Relation, Schema, Value};
use fdb::ivm::FivmEngine;
use fdb::lmfao::{covariance_batch, decision_node_batch};
use fdb::prelude::*;
use proptest::prelude::*;

mod common;

/// Cross-backend agreement (groups, represented key sets, values): the
/// looser tolerance absorbs genuinely different evaluation orders across
/// backends (materialized scan vs leapfrog vs shared views).
fn assert_results_match(base: &BatchResult, got: &BatchResult, tag: &str, naggs: usize) {
    common::assert_results_match(base, got, tag, naggs, 1e-6);
}

/// Runs `q` through every engine and checks the results coincide.
fn assert_engines_agree(db: &Database, q: &AggQuery) -> BatchResult {
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(FlatEngine),
        Box::new(FactorizedEngine::new()),
        Box::new(LmfaoEngine::new()),
        Box::new(LmfaoEngine::with_config(EngineConfig::sequential())),
        Box::new(LmfaoEngine::with_config(EngineConfig {
            specialize: false,
            share: false,
            threads: 1,
            ..Default::default()
        })),
        // The dense-disabled hash baseline must agree bit-for-bit.
        Box::new(LmfaoEngine::with_config(EngineConfig { dense_limit: 0, ..Default::default() })),
    ];
    let results: Vec<BatchResult> = engines
        .iter()
        .map(|e| e.run(db, q).unwrap_or_else(|err| panic!("{}: {err}", e.name())))
        .collect();
    let base = &results[0];
    for (e, r) in engines.iter().zip(&results).skip(1) {
        assert_results_match(base, r, e.name(), q.batch.len());
    }
    results.into_iter().next().expect("non-empty")
}

#[test]
fn all_backends_agree_on_dish() {
    let db = fdb::datasets::dish::dish_database();
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count());
    batch.push(Aggregate::sum("price"));
    batch.push(Aggregate::sum_prod("price", "price"));
    batch.push(Aggregate::count().by(&["customer"]));
    batch.push(Aggregate::count().by(&["day"]));
    batch.push(Aggregate::sum("price").by(&["customer", "day"]));
    batch.push(Aggregate::sum("price").filtered("price", FilterOp::Ge(3.0)));
    batch.push(Aggregate::count().by(&["customer"]).filtered("day", FilterOp::Eq(1)));
    batch.push(Aggregate::sum("price").filtered("price", FilterOp::Lt(100.0)));
    let q = AggQuery::new(&["Orders", "Dish", "Items"], batch);
    let res = assert_engines_agree(&db, &q);
    // Figure 9 ground truth: the dish join has 12 tuples.
    assert_eq!(res.scalar(0), 12.0);
    // Elise ordered twice (burger = 3 items each): 6 join tuples.
    let elise: Box<[i64]> = vec![fdb::datasets::dish::codes::ELISE].into();
    assert_eq!(res.grouped(3)[&elise], 6.0);
}

#[test]
fn all_backends_agree_on_retailer() {
    let ds = fdb::datasets::retailer(fdb::datasets::RetailerConfig::tiny());
    let rels = ds.relation_refs();
    // The covariance batch (Figure 5 workload) with grouped interactions.
    let cov = covariance_batch(&["prize", "maxtemp", "inventoryunits"], &["rain", "category"]);
    let res = assert_engines_agree(&ds.db, &AggQuery::new(&rels, cov));
    assert!(res.scalar(0) > 0.0, "tiny retailer join is non-empty");

    // A decision-tree node batch: conjunctive filters across relations.
    let node =
        decision_node_batch(&["prize", "maxtemp"], &["rain"], "inventoryunits", 2, 2, |attr, j| {
            match attr {
                "prize" => 5.0 + 10.0 * j as f64,
                _ => 5.0 * j as f64,
            }
        });
    assert_engines_agree(&ds.db, &AggQuery::new(&rels, node));
}

/// Bucketed group-by keys (`common::bucket_panel`) through every engine of
/// the panel, the hash baseline included, and against the classical
/// oracle.
#[test]
fn all_backends_agree_on_bucketed_keys() {
    let (db, q) = common::bucket_panel();
    let res = assert_engines_agree(&db, &q);
    assert_results_match(&common::oracle(&db, &q), &res, "oracle", q.batch.len());
    assert!(res.grouped(0).len() == 4, "every `y` bucket is populated");
}

#[test]
fn fivm_streams_to_the_same_covariance_stats() {
    let ds = fdb::datasets::retailer(fdb::datasets::RetailerConfig::tiny());
    let rels = ds.relation_refs();
    let q = AggQuery::new(&rels, covariance_batch(&["prize", "inventoryunits"], &[]));
    let streamed = FivmEngine.run(&ds.db, &q).unwrap();
    let batched = LmfaoEngine::new().run(&ds.db, &q).unwrap();
    for i in 0..q.batch.len() {
        let (a, b) = (streamed.scalar(i), batched.scalar(i));
        assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()), "agg {i}: fivm {a} vs lmfao {b}");
    }
}

/// A random 3-relation snowflake: F(a, b, c, x) ⋈ D1(a, w, u) ⋈ D2(b, v),
/// with categorical codes `c` (fact) and `w` (dimension) for group-bys.
fn snowflake(rows: &[(i64, i64, i8)], d1: &[(i64, i8)], d2: &[(i64, i8)]) -> Database {
    let mut db = Database::new();
    let mut f = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("b", AttrType::Int),
        ("c", AttrType::Categorical),
        ("x", AttrType::Double),
    ]));
    for &(a, b, x) in rows {
        // A derived categorical code keeps the generator's value space.
        let c = (a + 2 * b) % 3;
        f.push_row(&[Value::Int(a), Value::Int(b), Value::Int(c), Value::F64(x as f64)]).unwrap();
    }
    let mut r1 = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("w", AttrType::Categorical),
        ("u", AttrType::Double),
    ]));
    for &(a, u) in d1 {
        r1.push_row(&[Value::Int(a), Value::Int(a % 2), Value::F64(u as f64)]).unwrap();
    }
    let mut r2 = Relation::new(Schema::of(&[("b", AttrType::Int), ("v", AttrType::Double)]));
    for &(b, v) in d2 {
        r2.push_row(&[Value::Int(b), Value::F64(v as f64)]).unwrap();
    }
    db.add("F", f);
    db.add("D1", r1);
    db.add("D2", r2);
    db
}

/// The input-selected fallbacks, driven by data instead of a knob: group
/// columns spanning `±2^62` overflow `DenseKeyedRing::new` (factorized
/// takes the hash `KeyedRing`) and exceed every dense group limit (flat and
/// LMFAO take the hash `GroupIndex`). All engines must still reproduce the
/// oracle.
#[test]
fn huge_group_domains_take_the_hash_fallbacks_and_agree() {
    const BIG: i64 = 1 << 62;
    let mut db = Database::new();
    let mut f = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("g", AttrType::Int),
        ("x", AttrType::Double),
    ]));
    for (a, g, x) in [(0, -BIG, 1.0), (0, BIG, 2.0), (1, BIG, 4.0), (1, -BIG, 8.0), (2, BIG, 16.0)]
    {
        f.push_row(&[Value::Int(a), Value::Int(g), Value::F64(x)]).unwrap();
    }
    let mut d = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("h", AttrType::Int),
        ("u", AttrType::Double),
    ]));
    for (a, h, u) in [(0, BIG, 0.5), (1, -BIG, 0.25), (1, BIG, 2.0), (3, BIG, 9.0)] {
        d.push_row(&[Value::Int(a), Value::Int(h), Value::F64(u)]).unwrap();
    }
    db.add("F", f);
    db.add("D", d);
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count().by(&["g", "h"]));
    batch.push(Aggregate::sum_prod("x", "u").by(&["g", "h"]));
    batch.push(Aggregate::sum("x").by(&["h"]).filtered("u", FilterOp::Ge(0.5)));
    let q = AggQuery::new(&["F", "D"], batch);
    let res = assert_engines_agree(&db, &q);
    assert_results_match(&common::oracle(&db, &q), &res, "oracle", q.batch.len());
    let key: Box<[i64]> = vec![BIG, -BIG].into();
    assert_eq!(res.grouped(0)[&key], 1.0, "F(1, BIG) joins D(1, -BIG) once");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_random_snowflakes(
        rows in proptest::collection::vec((0i64..4, 0i64..4, -5i8..5), 0..25),
        d1 in proptest::collection::vec((0i64..4, -5i8..5), 0..8),
        d2 in proptest::collection::vec((0i64..4, -5i8..5), 0..8),
        threshold in -4i8..4,
    ) {
        let db = snowflake(&rows, &d1, &d2);
        let rels = ["F", "D1", "D2"];

        // Covariance batch through flat / factorized / LMFAO.
        let cov = AggQuery::new(&rels, covariance_batch(&["x", "u", "v"], &[]));
        let res = assert_engines_agree(&db, &cov);

        // … and through F-IVM, streaming every tuple.
        let streamed = FivmEngine.run(&db, &cov).unwrap();
        for i in 0..cov.batch.len() {
            let (a, b) = (streamed.scalar(i), res.scalar(i));
            prop_assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                "agg {}: fivm {} vs batch {}", i, a, b);
        }

        // A filtered aggregate exercises per-backend filter pushdown.
        let mut filtered = AggBatch::new();
        filtered.push(Aggregate::sum("x").filtered("u", FilterOp::Ge(threshold as f64)));
        filtered.push(Aggregate::count().filtered("x", FilterOp::Lt(threshold as f64)));
        assert_engines_agree(&db, &AggQuery::new(&rels, filtered));

        // Grouped aggregates over the categorical codes (the dense
        // GroupIndex path): all engines, incl. the hash fallbacks, agree.
        // `SUM(x)` with x ∈ [-5, 5] cancels to exactly 0.0 on some random
        // groups, so this also pins the exact-zero-dropped contract to the
        // representation-independent key counts.
        let grouped = AggQuery::new(&rels, covariance_batch(&["x", "u"], &["c", "w"]));
        let expect = assert_engines_agree(&db, &grouped);

        // The domain-threshold boundary: c spans ≤ 3 codes, w ≤ 2, so
        // limits 1..6 straddle per-view dense/hash splits (some views of
        // one plan dense, others hash). Every limit must reproduce the
        // same batch result.
        for limit in [0u64, 1, 2, 3, 6] {
            let cfg = EngineConfig { threads: 1, dense_limit: limit, ..Default::default() };
            let got = LmfaoEngine::with_config(cfg).run(&db, &grouped).unwrap();
            assert_results_match(&expect, &got, &format!("dense_limit={limit}"), grouped.batch.len());
        }
    }
}

/// The factorized engine must give identical results whether its sorted
/// views are freshly computed (cold cache) or served warm, and a warm
/// re-preparation must not sort anything new.
#[test]
fn factorized_agrees_with_cache_warm_and_cold() {
    let ds = fdb::datasets::retailer(fdb::datasets::RetailerConfig::tiny());
    let rels = ds.relation_refs();
    let q = AggQuery::new(
        &rels,
        covariance_batch(&["prize", "maxtemp", "inventoryunits"], &["rain", "category"]),
    );
    // Cold (global cache, fresh relation identities) vs warm (second run)
    // vs the cache-free oracle: identical results.
    let engine = FactorizedEngine::new();
    let cold = engine.run(&ds.db, &q).unwrap();
    let warm = engine.run(&ds.db, &q).unwrap();
    assert_results_match(&cold, &warm, "warm-vs-cold", q.batch.len());
    assert_results_match(&common::oracle(&ds.db, &q), &cold, "oracle", q.batch.len());

    // Sort accounting against a *private* cache: the global one is churned
    // by concurrently-running tests in this binary (FIFO eviction would
    // make a zero-re-sort assertion flaky there).
    let cache = fdb::data::SortCache::new(32);
    let sorts = || -> u64 { rels.iter().map(|r| cache.stats_for(ds.db.get(r).unwrap()).1).sum() };
    let grefs = ["category", "rain"];
    let cold_spec =
        fdb::factorized::EvalSpec::new_with_cache(&ds.db, &rels, &grefs, &cache).unwrap();
    let after_cold = sorts();
    assert!(after_cold > 0, "cold preparation sorts the relations");
    let warm_spec =
        fdb::factorized::EvalSpec::new_with_cache(&ds.db, &rels, &grefs, &cache).unwrap();
    assert_eq!(sorts(), after_cold, "warm preparation re-sorts nothing");
    assert_eq!(cold_spec.count(), warm_spec.count(), "same join either way");
}
