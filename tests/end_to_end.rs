//! End-to-end integration: the structure-aware model equals the
//! structure-agnostic model trained on the materialized matrix, both
//! Figure 3 pipelines hold their headline relations at test scale, and
//! the Figure 5 batch sizes have the paper's magnitudes and ordering.

use fdb::data::relation_to_csv;
use fdb::datasets::{favorita, retailer, tpcds, yelp, Dataset, RetailerConfig};
use fdb::datasets::{FavoritaConfig, TpcdsConfig, YelpConfig};
use fdb::lmfao::{covariance_batch, decision_node_batch, kmeans_batch, mutual_info_batch};
use fdb::lmfao::{sufficient_stats, LmfaoEngine, SufficientStats};
use fdb::ml::linreg::{LinearRegression, RidgeConfig};
use fdb::ml::sgd::{shuffled, train_linear_sgd, SgdConfig};
use fdb::ml::DataMatrix;
use fdb::query::natural_join_all;

/// The four evaluation datasets (Retailer, Favorita, Yelp, TPC-DS).
/// `scale` multiplies the default row counts (1.0 ≈ 10⁵-row fact tables).
fn datasets4(scale: f64) -> Vec<Dataset> {
    vec![
        retailer(RetailerConfig::scaled(scale)),
        favorita(FavoritaConfig {
            dates: ((90.0 * scale.cbrt()).ceil() as usize).max(4),
            stores: ((30.0 * scale.cbrt()).ceil() as usize).max(2),
            items: ((200.0 * scale.cbrt()).ceil() as usize).max(10),
            basket: ((40.0 * scale.cbrt()).ceil() as usize).max(4),
            ..FavoritaConfig::default()
        }),
        yelp(YelpConfig {
            users: ((2_000.0 * scale).ceil() as usize).max(20),
            businesses: ((600.0 * scale).ceil() as usize).max(10),
            reviews: ((60_000.0 * scale).ceil() as usize).max(100),
            ..YelpConfig::default()
        }),
        tpcds(TpcdsConfig {
            customers: ((3_000.0 * scale).ceil() as usize).max(30),
            stores: ((25.0 * scale.cbrt()).ceil() as usize).max(3),
            items: ((400.0 * scale).ceil() as usize).max(20),
            dates: ((120.0 * scale.cbrt()).ceil() as usize).max(10),
            sales: ((80_000.0 * scale).ceil() as usize).max(200),
            ..TpcdsConfig::default()
        }),
    ]
}

/// What both Figure 3 pipelines produce on one dataset.
struct Fig3 {
    /// One-epoch SGD over the materialized matrix, RMSE on held-out rows.
    sgd_rmse: f64,
    /// Gradient descent over the sufficient statistics, same rows.
    aware_rmse: f64,
    /// CSV size of the materialized join.
    join_bytes: usize,
    /// Size of the sufficient statistics, 8 bytes per key or value word
    /// (borg-bench's `core.stats.bytes`).
    stats_bytes: usize,
}

/// Structure-agnostic (join → one-hot matrix → shuffle → 2 % held out →
/// one-epoch SGD) against structure-aware (`sufficient_stats` →
/// `fit_gd`), both scored on the same held-out rows.
fn fig3(ds: &Dataset) -> Fig3 {
    let rels: Vec<&str> = ds.relation_refs();
    let cont: Vec<&str> = ds.features.continuous.iter().map(String::as_str).collect();
    let cat: Vec<&str> = ds.features.categorical.iter().map(String::as_str).collect();

    let flat = natural_join_all(&ds.db, &rels).expect("dataset join is well-formed");
    let dm = DataMatrix::from_relation(&flat, &cont, &cat, &ds.features.response).unwrap();
    let (train, test) = shuffled(&dm, 7).split(0.02);
    let sgd = train_linear_sgd(&train, &SgdConfig::default());

    let cont_resp = ds.features.continuous_with_response_refs();
    let stats = sufficient_stats(&ds.db, &rels, &cont_resp, &cat, &LmfaoEngine::default()).unwrap();
    let aware = LinearRegression::fit_gd(&stats, &RidgeConfig::default()).unwrap();
    Fig3 {
        sgd_rmse: test.rmse(&sgd.weights, sgd.intercept),
        aware_rmse: test.rmse(&aware.weights, aware.intercept),
        join_bytes: relation_to_csv(&flat).len(),
        stats_bytes: stats_bytes(&stats),
    }
}

fn stats_bytes(s: &SufficientStats) -> usize {
    let maps: usize = s.cat_counts.iter().map(|m| 2 * m.len()).sum::<usize>()
        + s.cat_cont_sums.iter().flatten().map(|m| 2 * m.len()).sum::<usize>()
        + s.cat_pair_counts.values().map(|m| 3 * m.len()).sum::<usize>();
    8 * (1 + s.sum.len() + s.q.len() + maps)
}

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
    let rels: Vec<&str> = ds.relation_refs();
    // Key-fkey join: as many rows as the fact table, wider than any input.
    let join = natural_join_all(&ds.db, &rels).unwrap();
    assert_eq!(join.len(), ds.db.get("Inventory").unwrap().len());
    let widest_input = ds.db.iter().map(|(_, r)| r.schema().arity()).max().unwrap();
    assert!(join.schema().arity() > widest_input);

    // Sufficient statistics are an order of magnitude smaller than the
    // materialized join on Retailer.
    let r = fig3(&ds);
    assert!(
        r.stats_bytes * 10 < r.join_bytes,
        "Retailer tiny: statistics {} B vs join {} B",
        r.stats_bytes,
        r.join_bytes
    );

    // Both pipelines on all four datasets.
    for ds in datasets4(0.01) {
        let r = fig3(&ds);
        let name = ds.name;
        assert!(r.aware_rmse.is_finite() && r.sgd_rmse.is_finite(), "{name}: RMSEs finite");
        assert!(
            r.aware_rmse <= 1.2 * r.sgd_rmse,
            "{name}: structure-aware RMSE {} vs one-epoch SGD {}",
            r.aware_rmse,
            r.sgd_rmse
        );
        assert!(
            r.stats_bytes < r.join_bytes,
            "{name}: statistics {} B vs join {} B",
            r.stats_bytes,
            r.join_bytes
        );
    }
}

#[test]
fn fig5_batch_sizes_have_the_papers_magnitudes_and_ordering() {
    let ds4 = datasets4(0.01);
    let names: Vec<&str> = ds4.iter().map(|d| d.name).collect();
    assert_eq!(names, ["Retailer", "Favorita", "Yelp", "TPC-DS"]);
    for ds in &ds4 {
        let name = ds.name;
        assert!(ds.db.total_rows() > 0, "{name} empty");
        let cont: Vec<&str> = ds.features.continuous_with_response_refs();
        let cat: Vec<&str> = ds.features.categorical.iter().map(String::as_str).collect();
        let resp = ds.features.response.as_str();
        let feats = &cont[..cont.len() - 1];
        let covariance = covariance_batch(&cont, &cat).len();
        // The paper's tree learner considers ~20 thresholds per continuous
        // and the frequent categories per categorical.
        let decision_node = decision_node_batch(feats, &cat, resp, 20, 10, |_, j| j as f64).len();
        let mutual_info = mutual_info_batch(&cat).len();
        let kmeans = kmeans_batch(&cont).len();
        // Hundreds-to-thousands for covariance and decision nodes,
        // dozens-to-hundreds for mutual information, dozens for k-means:
        // the figure's shape.
        assert!(covariance >= 50, "{name}: {covariance}");
        assert!(decision_node >= covariance / 2, "{name}: {decision_node} vs {covariance}");
        assert!(mutual_info < covariance, "{name}: {mutual_info} vs {covariance}");
        assert!(kmeans < mutual_info + covariance, "{name}: {kmeans}");
        assert!(kmeans >= 5, "{name}: {kmeans}");
    }

    // Figure 4 left's two Retailer batches: the regression-node batch
    // (8 thresholds, 4 categories) is in the hundreds, above the
    // covariance batch.
    let ds = &ds4[0];
    let cont: Vec<&str> = ds.features.continuous_with_response_refs();
    let cat: Vec<&str> = ds.features.categorical.iter().map(String::as_str).collect();
    let resp = ds.features.response.as_str();
    let c = covariance_batch(&cont, &cat).len();
    let r = decision_node_batch(&cont[..cont.len() - 1], &cat, resp, 8, 4, |_, j| j as f64).len();
    assert!(r > 100, "R batch: {r} aggregates");
    assert!(c < r, "C batch {c} vs R batch {r}");
}
