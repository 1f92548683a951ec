//! Root-morsel execution and adaptive dispatch agree with the oracle.
//!
//! The contract: cutting LMFAO's root scan into morsels — any thread
//! count, any morsel size — changes *where* work happens, never the
//! result. Group attribute order, categorical code keys, and the
//! exactly-zero-dropped represented key set must all survive the
//! per-morsel partials and their tree merge (contributions that cancel
//! only across morsels are dropped at extraction, after the merge).
//! Likewise, `DispatchEngine` only ever picks among agreeing backends, so
//! whatever it chooses must reproduce every backend's answer.

use fdb::data::{AttrType, Database, Relation, Schema, Value};
use fdb::lmfao::covariance_batch;
use fdb::prelude::*;
use proptest::prelude::*;

mod common;

/// `(threads, morsel_rows)` exercised everywhere: single-row morsels,
/// more threads than rows, morsels as wide as the thread count, and the
/// default morsel size (one unchunked root on every test relation here).
const MORSEL_CONFIGS: [(usize, usize); 4] = [(2, 1), (3, 2), (7, 7), (2, 4096)];

fn morsel_config(threads: usize, morsel_rows: usize) -> EngineConfig {
    EngineConfig { threads, morsel_rows, ..Default::default() }
}

/// Strict agreement: integer-valued test data makes morsel merges exact,
/// so the tight tolerance only absorbs differences in float *summation
/// order* on real-valued datasets.
fn assert_results_match(base: &BatchResult, got: &BatchResult, tag: &str, naggs: usize) {
    common::assert_results_match(base, got, tag, naggs, 1e-9);
}

/// Runs `q` on LMFAO and dispatch at every morsel configuration and checks
/// each against `FlatEngine` and the oracle; returns the flat result.
fn assert_morsels_agree(db: &Database, q: &AggQuery) -> BatchResult {
    let naggs = q.batch.len();
    let oracle = common::oracle(db, q);
    let flat = FlatEngine.run(db, q).unwrap();
    assert_results_match(&oracle, &flat, "flat vs oracle", naggs);
    for (threads, rows) in MORSEL_CONFIGS {
        let cfg = morsel_config(threads, rows);
        let runs = [
            ("lmfao", LmfaoEngine::with_config(cfg).run(db, q).unwrap()),
            ("dispatch", DispatchEngine::with_config(cfg).run(db, q).unwrap()),
        ];
        for (name, got) in &runs {
            let tag = format!("{name} t{threads} m{rows}");
            assert_results_match(&flat, got, &format!("{tag} vs flat"), naggs);
            assert_results_match(&oracle, got, &format!("{tag} vs oracle"), naggs);
        }
    }
    flat
}

/// The dispatcher's answer — flat or LMFAO, never the factorized
/// comparator — must agree with every backend.
fn assert_dispatch_agrees(db: &Database, q: &AggQuery) {
    let base = FlatEngine.run(db, q).unwrap();
    let dispatch = DispatchEngine::new();
    let choice = dispatch.choose(db, q).unwrap();
    assert_ne!(choice, EngineChoice::Factorized, "the comparator is never chosen");
    let backends: [(&str, &dyn Engine); 3] = [
        ("dispatch", &dispatch),
        ("factorized", &FactorizedEngine::new()),
        ("lmfao", &LmfaoEngine::new()),
    ];
    for (name, engine) in backends {
        let tag = format!("{name} (dispatch chose {choice:?})");
        assert_results_match(&base, &engine.run(db, q).unwrap(), &tag, q.batch.len());
    }
}

#[test]
fn morsel_backends_agree_on_dish() {
    let db = fdb::datasets::dish::dish_database();
    let mut batch = AggBatch::new();
    batch.push(Aggregate::count());
    batch.push(Aggregate::sum("price"));
    batch.push(Aggregate::count().by(&["customer"]));
    batch.push(Aggregate::sum("price").by(&["day", "customer"]));
    batch.push(Aggregate::sum("price").filtered("price", FilterOp::Ge(3.0)));
    let q = AggQuery::new(&["Orders", "Dish", "Items"], batch);
    let res = assert_morsels_agree(&db, &q);
    // Figure 9 ground truth survives the morsel split: 12 join tuples.
    assert_eq!(res.scalar(0), 12.0);
    assert_dispatch_agrees(&db, &q);
}

#[test]
fn morsel_backends_agree_on_retailer() {
    let ds = fdb::datasets::retailer(fdb::datasets::RetailerConfig::tiny());
    let rels = ds.relation_refs();
    let cov = covariance_batch(&["prize", "maxtemp", "inventoryunits"], &["rain", "category"]);
    let q = AggQuery::new(&rels, cov);
    assert_morsels_agree(&ds.db, &q);
    assert_dispatch_agrees(&ds.db, &q);
}

#[test]
fn morsels_compose_with_dispatch() {
    // The two layers are orthogonal: the dispatcher hands its morsel
    // configuration to the LMFAO it chooses, and at every configuration
    // it agrees with that LMFAO and with the default dispatcher.
    let ds = fdb::datasets::retailer(fdb::datasets::RetailerConfig::tiny());
    let rels = ds.relation_refs();
    let q = AggQuery::new(&rels, covariance_batch(&["prize", "inventoryunits"], &["rain"]));
    let base = DispatchEngine::new().run(&ds.db, &q).unwrap();
    for (threads, rows) in MORSEL_CONFIGS {
        let cfg = morsel_config(threads, rows);
        let dispatch = DispatchEngine::with_config(cfg);
        assert_eq!(dispatch.choose(&ds.db, &q).unwrap(), EngineChoice::Lmfao);
        let engines: [(&str, &dyn Engine); 2] =
            [("dispatch", &dispatch), ("lmfao", &LmfaoEngine::with_config(cfg))];
        for (name, engine) in engines {
            let got = engine.run(&ds.db, &q).unwrap();
            let tag = format!("{name} t{threads} m{rows}");
            assert_results_match(&base, &got, &tag, q.batch.len());
        }
    }
}

/// A random 3-relation snowflake: F(a, b, c, x) ⋈ D1(a, w, u) ⋈ D2(b, v),
/// with categorical codes `c` (fact) and `w` (dimension) for group-bys —
/// the same generator family as `tests/engines_agree.rs`.
fn snowflake(rows: &[(i64, i64, i8)], d1: &[(i64, i8)], d2: &[(i64, i8)]) -> Database {
    let mut db = Database::new();
    let mut f = Relation::new(Schema::of(&[
        ("a", AttrType::Int),
        ("b", AttrType::Int),
        ("c", AttrType::Categorical),
        ("x", AttrType::Double),
    ]));
    for &(a, b, x) in rows {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized agreement: LMFAO and dispatch at every morsel
    /// configuration ≡ flat ≡ the oracle, on snowflakes whose
    /// integer-valued measures make cancellation to *exactly* 0.0 common —
    /// including across morsels, so extraction's zero drop after the tree
    /// merge (not any per-morsel dropping) is what keeps the represented
    /// key sets identical.
    #[test]
    fn morsel_engines_agree_on_random_snowflakes(
        rows in proptest::collection::vec((0i64..4, 0i64..4, -5i8..5), 0..25),
        d1 in proptest::collection::vec((0i64..4, -5i8..5), 0..8),
        d2 in proptest::collection::vec((0i64..4, -5i8..5), 0..8),
        threshold in -4i8..4,
    ) {
        let db = snowflake(&rows, &d1, &d2);
        let rels = ["F", "D1", "D2"];

        // Scalar covariance batch (wide: exercises the lmfao-ish shapes).
        let cov = AggQuery::new(&rels, covariance_batch(&["x", "u", "v"], &[]));
        assert_morsels_agree(&db, &cov);

        // Grouped over the categorical codes: dense GroupIndex paths and
        // `SUM(x)` values that cancel to exactly 0.0 on random groups.
        let grouped = AggQuery::new(&rels, covariance_batch(&["x", "u"], &["c", "w"]));
        assert_morsels_agree(&db, &grouped);
        assert_dispatch_agrees(&db, &grouped);

        // A filtered narrow batch.
        let mut filtered = AggBatch::new();
        filtered.push(Aggregate::sum("x").filtered("u", FilterOp::Ge(threshold as f64)));
        filtered.push(Aggregate::count().by(&["w"]).filtered("x", FilterOp::Lt(threshold as f64)));
        let fq = AggQuery::new(&rels, filtered);
        assert_morsels_agree(&db, &fq);
        assert_dispatch_agrees(&db, &fq);
    }
}
