//! End-to-end integration: the structure-aware model equals the
//! structure-agnostic model trained on the materialized matrix, and the
//! full Figure 3 harness holds its headline relations at test scale.

use fdb::datasets::{retailer, RetailerConfig};
use fdb::lmfao::{sufficient_stats, LmfaoEngine};
use fdb::ml::linreg::{LinearRegression, RidgeConfig};
use fdb::ml::DataMatrix;
use fdb::query::natural_join_all;

#[test]
fn structure_aware_model_predicts_like_matrix_model() {
    let ds = retailer(RetailerConfig::tiny());
    let rels: Vec<&str> = ds.relation_refs();
    let cont: Vec<&str> = ds.features.continuous_with_response_refs();
    let cat: Vec<&str> = ds.features.categorical.iter().map(String::as_str).collect();
    let stats = sufficient_stats(&ds.db, &rels, &cont, &cat, &LmfaoEngine::default()).unwrap();
    let model = LinearRegression::fit_closed(&stats, &RidgeConfig::default()).unwrap();

    // The same model trained on the materialized one-hot matrix has the
    // same labels; predictions must coincide row by row.
    let flat = natural_join_all(&ds.db, &rels).unwrap();
    let feats: Vec<&str> = ds.features.continuous.iter().map(String::as_str).collect();
    let m = DataMatrix::from_relation(&flat, &feats, &cat, &ds.features.response).unwrap();
    assert_eq!(model.labels, m.labels);
    let rmse = m.rmse(&model.weights, model.intercept);
    // The planted retailer signal is mostly linear: decent fit expected.
    let mean = m.y.iter().sum::<f64>() / m.rows() as f64;
    let base = (m.y.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / m.rows() as f64).sqrt();
    assert!(rmse < 0.7 * base, "rmse {rmse} vs constant-mean {base}");
}

#[test]
fn fig3_harness_invariants() {
    let ds = retailer(RetailerConfig::tiny());
    let table = fdb_bench::fig3::dataset_table(&ds);
    // Key-fkey join: as many rows as the fact table, wider than any input.
    let join = table.last().unwrap();
    assert_eq!(join.name, "Join");
    assert_eq!(join.rows, ds.db.get("Inventory").unwrap().len());
    let widest_input = table[..table.len() - 1].iter().map(|r| r.attrs).max().unwrap();
    assert!(join.attrs > widest_input);
    // Both pipelines on every dataset `fig3_endtoend` reports.
    for ds in fdb_bench::datasets4::all(0.01) {
        let r = fdb_bench::fig3::end_to_end(&ds, 2);
        let name = ds.name;
        assert!(r.lmfao_rmse.is_finite() && r.sgd_rmse.is_finite(), "{name}: RMSEs finite");
        assert!(
            r.lmfao_rmse <= 1.2 * r.sgd_rmse,
            "{name}: structure-aware RMSE {} vs one-epoch SGD {}",
            r.lmfao_rmse,
            r.sgd_rmse
        );
        assert!(
            r.stats_bytes < r.matrix_bytes,
            "{name}: statistics {} B vs matrix {} B",
            r.stats_bytes,
            r.matrix_bytes
        );
    }
}
