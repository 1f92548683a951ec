//! Structure-aware vs structure-agnostic learning on the retailer dataset
//! (the Figure 2/3 story): print the dataset's characteristics (Figure 3
//! left: per relation its rows, arity and CSV size, plus the materialized
//! join), then train a ridge regression predicting inventory units both
//! ways and compare time and accuracy.
//!
//! ```bash
//! cargo run --release --example retailer_forecast [scale]
//! ```

use fdb::data::relation_to_csv;
use fdb::datasets::{retailer, RetailerConfig};
use fdb::lmfao::{parallel::default_threads, sufficient_stats, LmfaoEngine};
use fdb::ml::linreg::{LinearRegression, RidgeConfig};
use fdb::ml::sgd::{shuffled, train_linear_sgd, SgdConfig};
use fdb::ml::DataMatrix;
use fdb::query::natural_join_all;
use std::time::Instant;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let ds = retailer(RetailerConfig::scaled(scale));
    let rels: Vec<&str> = ds.relation_refs();
    let engine = LmfaoEngine::new();
    println!(
        "Retailer at scale {scale}: {} inventory rows over {} relations, \
         {} threads on {} available cores",
        ds.db.get("Inventory").unwrap().len(),
        rels.len(),
        engine.cfg.threads,
        default_threads()
    );

    // Figure 3 (left): dataset characteristics and the join's blow-up.
    println!("\n{:<10} {:>10} {:>6} {:>14}", "relation", "rows", "arity", "CSV bytes");
    let join = natural_join_all(&ds.db, &rels).unwrap();
    for (name, rel) in ds.db.iter().chain([("Join", &join)]) {
        let bytes = relation_to_csv(rel).len();
        println!("{name:<10} {:>10} {:>6} {bytes:>14}", rel.len(), rel.schema().arity());
    }
    println!();
    let cont: Vec<&str> = ds.features.continuous.iter().map(String::as_str).collect();
    let cat: Vec<&str> = ds.features.categorical.iter().map(String::as_str).collect();
    let cont_resp: Vec<&str> = ds.features.continuous_with_response_refs();

    // Structure-agnostic: materialize, one-hot, SGD.
    let t0 = Instant::now();
    let flat = natural_join_all(&ds.db, &rels).unwrap();
    let dm = DataMatrix::from_relation(&flat, &cont, &cat, &ds.features.response).unwrap();
    let shuffled_dm = shuffled(&dm, 7);
    let (train, test) = shuffled_dm.split(0.02);
    let sgd = train_linear_sgd(&train, &SgdConfig::default());
    let agnostic = t0.elapsed();
    println!(
        "structure-agnostic: {:?} (join {} rows x {} cols), RMSE {:.4}",
        agnostic,
        flat.len(),
        flat.schema().arity(),
        test.rmse(&sgd.weights, sgd.intercept)
    );

    // Structure-aware: LMFAO batch + GD on the covariance matrix.
    let t0 = Instant::now();
    let stats = sufficient_stats(&ds.db, &rels, &cont_resp, &cat, &engine).unwrap();
    let model = LinearRegression::fit_gd(&stats, &RidgeConfig::default()).unwrap();
    let aware = t0.elapsed();
    println!(
        "structure-aware:    {:?} (covariance over {} features), RMSE {:.4}",
        aware,
        stats.cont.len() - 1 + stats.cat.len(),
        test.rmse(&model.weights, model.intercept)
    );
    println!(
        "speedup: {:.1}x; retraining on a feature subset from the same stats:",
        agnostic.as_secs_f64() / aware.as_secs_f64()
    );
    // Model selection (§1.5): three more models, milliseconds each.
    for k in [2usize, 5, 8] {
        let subset: Vec<usize> = (0..k.min(stats.cont.len() - 1)).collect();
        let t0 = Instant::now();
        let m = LinearRegression::fit_gd_subset(&stats, &subset, &RidgeConfig::default()).unwrap();
        println!("  {} features -> {} params in {:?}", k, m.weights.len(), t0.elapsed());
    }
}
