//! Cache correctness: cached and cold evaluation agree under relation
//! mutations and filter permutations across batches.
//!
//! The cross-batch `ViewCache` serves materialized subtree views keyed on
//! plan signatures plus relation content ids. Two things must therefore
//! hold on *any* sequence of runs:
//!
//! * **mutation invalidates** — a mutated relation refreshes its
//!   `data_id`, so no later batch may ever see a stale view;
//! * **filter permutation is plan-equivalent** — reordering a conjunctive
//!   filter list (or revisiting an earlier threshold) may hit cached
//!   views, and the served results must equal a cold evaluation exactly.
//!
//! Every round cross-checks the cache-using engines (LMFAO with the
//! default budget, dispatch, root-morsel LMFAO, factorized with its sort
//! cache) against the stateless flat baseline *and* a cache-bypassing
//! LMFAO run, on dish, retailer, and random snowflakes.

use fdb::data::{AttrType, Database, Relation, Schema, Value};
use fdb::lmfao::{covariance_batch, decision_node_batch};
use fdb::prelude::*;
use proptest::prelude::*;

mod common;

/// All engines that must agree with the flat baseline, cache-warm or not.
/// `lmfao-cold` bypasses the view cache entirely (`view_cache_bytes: 0`),
/// so any divergence between it and `lmfao-cached` is a stale or
/// mis-keyed cache entry. `morsel-lmfao` caches the root under its morsel
/// count, beside the sequential runs' one-chunk roots.
fn engines() -> Vec<(&'static str, Box<dyn Engine>)> {
    let seq = EngineConfig::sequential();
    let cold = EngineConfig { view_cache_bytes: 0, ..seq };
    let morsels = EngineConfig { threads: 3, morsel_rows: 2, ..Default::default() };
    vec![
        ("factorized", Box::new(FactorizedEngine::new())),
        ("lmfao-cached", Box::new(LmfaoEngine::with_config(seq))),
        ("lmfao-cold", Box::new(LmfaoEngine::with_config(cold))),
        ("dispatch", Box::new(DispatchEngine::with_config(seq))),
        ("morsel-lmfao", Box::new(LmfaoEngine::with_config(morsels))),
    ]
}

fn assert_all_agree(db: &Database, q: &AggQuery, tag: &str) {
    let base = FlatEngine.run(db, q).unwrap();
    for (name, e) in engines() {
        let got = e.run(db, q).unwrap();
        common::assert_results_match(&base, &got, &format!("{tag}/{name}"), q.batch.len(), 1e-9);
    }
}

/// The same random 3-relation snowflake family as `tests/morsel_agree.rs`.
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

/// A filtered batch over the snowflake with the conjunction in a given
/// order — permutations are plan-equivalent and must agree exactly.
fn filtered_batch(t1: f64, t2: f64, reversed: bool) -> AggBatch {
    let filters: Vec<(&str, FilterOp)> = vec![("u", FilterOp::Ge(t1)), ("x", FilterOp::Lt(t2))];
    let order: Vec<_> = if reversed { filters.into_iter().rev().collect() } else { filters };
    let mut b = AggBatch::new();
    b.push(Aggregate::count());
    let mut sum = Aggregate::sum("x");
    let mut grouped = Aggregate::count().by(&["c", "w"]);
    for (a, op) in &order {
        sum = sum.filtered(a, op.clone());
        grouped = grouped.filtered(a, op.clone());
    }
    b.push(sum);
    b.push(grouped);
    b.push(Aggregate::sum("v").by(&["w"]));
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random interleavings of relation mutations and filtered batches:
    /// after every step, cached engines must agree with both the flat
    /// baseline and a cache-bypassing LMFAO run, and a batch whose filter
    /// conjunction is merely permuted must reproduce the original result.
    #[test]
    fn cached_and_cold_agree_under_mutations_and_filter_permutations(
        rows in proptest::collection::vec((0i64..4, 0i64..4, -5i8..5), 1..20),
        d1 in proptest::collection::vec((0i64..4, -5i8..5), 1..8),
        d2 in proptest::collection::vec((0i64..4, -5i8..5), 1..8),
        ops in proptest::collection::vec((0usize..3, -4i8..4, any::<bool>()), 1..5),
    ) {
        let mut db = snowflake(&rows, &d1, &d2);
        let rels = ["F", "D1", "D2"];
        for (step, (target, t, mutate)) in ops.into_iter().enumerate() {
            if mutate {
                // Duplicate an existing row: refreshes the relation's
                // data_id, so every covering cached view must be bypassed.
                let name = rels[target % 3];
                let row = db.get(name).unwrap().row_vec(0);
                db.get_mut(name).unwrap().push_row(&row).unwrap();
            }
            let q = AggQuery::new(&rels, filtered_batch(t as f64, (t + 1) as f64, false));
            assert_all_agree(&db, &q, &format!("step {step}"));
            // The permuted conjunction is the same plan: cached engines
            // may serve it entirely from warm views and must still match.
            let qp = AggQuery::new(&rels, filtered_batch(t as f64, (t + 1) as f64, true));
            assert_all_agree(&db, &qp, &format!("step {step} permuted"));
            // And an unfiltered covariance batch interleaved between the
            // filtered ones (dimension subtrees stay warm across shapes).
            let cov = AggQuery::new(&rels, covariance_batch(&["x", "u", "v"], &["c"]));
            assert_all_agree(&db, &cov, &format!("step {step} cov"));
        }
    }
}

/// A decision-tree-style threshold walk on retailer: one batch per
/// "node", thresholds moving and *revisiting* earlier values (revisits
/// are exactly the warm-cache case), with a mid-walk mutation.
#[test]
fn retailer_threshold_walk_cached_vs_cold() {
    let ds = fdb::datasets::retailer(fdb::datasets::RetailerConfig::tiny());
    let mut db = ds.db;
    let rels: Vec<&str> = vec!["Inventory", "Location", "Census", "Item", "Weather"];
    let run_walk = |db: &Database, tag: &str| {
        for (i, t) in [5.0, 15.0, 5.0, 10.0, 5.0].iter().enumerate() {
            let batch = decision_node_batch(
                &["prize", "maxtemp"],
                &["rain"],
                "inventoryunits",
                2,
                2,
                |attr, j| match attr {
                    "prize" => t + 10.0 * j as f64,
                    _ => t * (j as f64 + 1.0),
                },
            );
            let q = AggQuery::new(&rels, batch);
            assert_all_agree(db, &q, &format!("{tag} node {i} t={t}"));
        }
    };
    run_walk(&db, "pre-mutation");
    // Mutate a dimension mid-training: every later batch must see it.
    let row = db.get("Item").unwrap().row_vec(0);
    db.get_mut("Item").unwrap().push_row(&row).unwrap();
    run_walk(&db, "post-mutation");
}

/// Dish (Figure 7/9 example): repeated filtered batches with revisited
/// thresholds, then a mutation, across all engines.
#[test]
fn dish_filter_revisits_cached_vs_cold() {
    let mut db = fdb::datasets::dish::dish_database();
    let rels = ["Orders", "Dish", "Items"];
    let run_round = |db: &Database, tag: &str| {
        for t in [1.0, 3.0, 1.0, 2.0] {
            let mut batch = AggBatch::new();
            batch.push(Aggregate::count());
            batch.push(Aggregate::sum("price").filtered("price", FilterOp::Ge(t)));
            batch.push(Aggregate::count().by(&["customer"]).filtered("day", FilterOp::Eq(1)));
            let q = AggQuery::new(&rels, batch);
            assert_all_agree(db, &q, &format!("{tag} t={t}"));
        }
    };
    run_round(&db, "cold+warm");
    let row = db.get("Items").unwrap().row_vec(0);
    db.get_mut("Items").unwrap().push_row(&row).unwrap();
    run_round(&db, "mutated");
}

/// Bucket keys in view-cache keys: runs over one database that bucket the
/// same attribute by different cuts never serve each other's views (the
/// cuts are part of the key's canonical name, so of every signature),
/// while an identical rerun is served from the cache.
#[test]
fn different_cuts_never_share_cached_views() {
    let (db, _) = common::bucket_panel();
    let rels = ["F", "D1", "D2"];
    let query = |cuts: &[f64]| {
        let mut batch = AggBatch::new();
        batch.push(Aggregate::count().by_bucket("u", cuts));
        batch.push(Aggregate::sum("x").by(&["c"]).by_bucket("u", cuts));
        AggQuery::new(&rels, batch)
    };
    let (qa, qb) = (query(&[-0.5, 0.0, 0.75]), query(&[-0.5, 0.0, 0.5]));
    let cache = fdb::lmfao::ViewCache::global();
    // D1 owns `u`: its views are the ones the cuts change.
    let d1 = db.get("D1").unwrap().data_id();
    let engine = LmfaoEngine::with_config(EngineConfig::sequential());
    let mut last = cache.stats_for_id(d1);
    let mut run = |q: &AggQuery, tag: &str, hit: bool| {
        let got = engine.run(&db, q).unwrap();
        common::assert_results_match(
            &FlatEngine.run(&db, q).unwrap(),
            &got,
            tag,
            q.batch.len(),
            0.0,
        );
        let now = cache.stats_for_id(d1);
        let (hits, misses) = (now.0 - last.0, now.1 - last.1);
        assert_eq!((hits > 0, misses > 0), (hit, !hit), "{tag}: D1 hits {hits}, misses {misses}");
        last = now;
    };
    run(&qa, "cold, cuts a", false);
    run(&qb, "cuts b after a", false);
    run(&qa, "cuts a again", true);
    run(&qb, "cuts b again", true);
}
