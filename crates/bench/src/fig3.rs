//! Figure 3: the end-to-end experiment.
//!
//! Left table — dataset characteristics (cardinalities, arities,
//! CSV sizes, join blow-up). Right table — structure-agnostic
//! (join → export → shuffle → one-epoch SGD) vs structure-aware
//! (LMFAO aggregate batch → gradient descent on the covariance matrix),
//! with times, payload sizes, and RMSE of both models on held-out data.

use fdb_core::{sufficient_stats, EngineConfig, LmfaoEngine};
use fdb_data::relation_to_csv;
use fdb_datasets::Dataset;
use fdb_ml::linreg::{LinearRegression, RidgeConfig};
use fdb_ml::sgd::{shuffled, train_linear_sgd, SgdConfig};
use fdb_ml::DataMatrix;
use fdb_query::natural_join_all;

/// One row of the dataset-characteristics table.
#[derive(Debug, Clone)]
pub struct DatasetRow {
    /// Relation name (or "Join").
    pub name: String,
    /// Cardinality.
    pub rows: usize,
    /// Arity.
    pub attrs: usize,
    /// CSV byte size.
    pub csv_bytes: usize,
}

/// The dataset-characteristics table (Figure 3 left), including the
/// materialized join row.
pub fn dataset_table(ds: &Dataset) -> Vec<DatasetRow> {
    let mut rows = Vec::new();
    for (name, rel) in ds.db.iter() {
        rows.push(DatasetRow {
            name: name.to_string(),
            rows: rel.len(),
            attrs: rel.schema().arity(),
            csv_bytes: relation_to_csv(rel).len(),
        });
    }
    let rels: Vec<&str> = ds.relation_refs();
    let join = natural_join_all(&ds.db, &rels).expect("dataset join is well-formed");
    rows.push(DatasetRow {
        name: "Join".to_string(),
        rows: join.len(),
        attrs: join.schema().arity(),
        csv_bytes: relation_to_csv(&join).len(),
    });
    rows
}

/// Timings and accuracy of both pipelines (Figure 3 right).
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Join materialization time (structure-agnostic).
    pub join_secs: f64,
    /// Export + import time (CSV round trip of the data matrix).
    pub export_secs: f64,
    /// Shuffle time.
    pub shuffle_secs: f64,
    /// One-epoch SGD time.
    pub sgd_secs: f64,
    /// Data matrix CSV size in bytes.
    pub matrix_bytes: usize,
    /// Structure-agnostic RMSE on held-out rows.
    pub sgd_rmse: f64,
    /// LMFAO aggregate batch time (structure-aware).
    pub batch_secs: f64,
    /// Gradient descent over the covariance matrix.
    pub gd_secs: f64,
    /// Sufficient statistics payload size in bytes.
    pub stats_bytes: usize,
    /// Structure-aware RMSE on the same held-out rows.
    pub lmfao_rmse: f64,
    /// Total structure-agnostic seconds.
    pub agnostic_total: f64,
    /// Total structure-aware seconds.
    pub aware_total: f64,
}

/// Runs both pipelines on a dataset over its feature set.
pub fn end_to_end(ds: &Dataset, threads: usize) -> EndToEnd {
    let rels: Vec<&str> = ds.relation_refs();
    let cont: Vec<&str> = ds.features.continuous.iter().map(String::as_str).collect();
    let cat: Vec<&str> = ds.features.categorical.iter().map(String::as_str).collect();
    let cont_resp: Vec<String> = ds.features.continuous_with_response();
    let cont_resp_refs: Vec<&str> = cont_resp.iter().map(String::as_str).collect();

    // ---- structure-agnostic: join → export → shuffle → SGD ----
    let (join_secs, flat) = crate::time(|| natural_join_all(&ds.db, &rels).expect("join"));
    let (export_secs, matrix) = crate::time(|| {
        // Export to CSV bytes and parse back: the PostgreSQL → TensorFlow
        // data move.
        let bytes = relation_to_csv(&flat);
        let schema = flat.schema().clone();
        let reimported = fdb_data::read_csv(schema, &bytes).expect("own CSV re-imports");
        (bytes.len(), reimported)
    });
    let (matrix_bytes, reimported) = matrix;
    let dm = DataMatrix::from_relation(&reimported, &cont, &cat, &ds.features.response)
        .expect("features exist");
    let (shuffle_secs, shuffled_dm) = crate::time(|| shuffled(&dm, 7));
    let (train, test) = shuffled_dm.split(0.02); // 2% held out, as in the paper
    let (sgd_secs, sgd_model) = crate::time(|| train_linear_sgd(&train, &SgdConfig::default()));
    let sgd_rmse = test.rmse(&sgd_model.weights, sgd_model.intercept);

    // ---- structure-aware: LMFAO batch → GD on the covariance matrix ----
    let engine = LmfaoEngine::with_config(EngineConfig { threads, ..Default::default() });
    let (batch_secs, stats) = crate::time(|| {
        sufficient_stats(&ds.db, &rels, &cont_resp_refs, &cat, &engine).expect("stats")
    });
    let stats_bytes = stats_size_bytes(&stats);
    let (gd_secs, lmfao_model) =
        crate::time(|| LinearRegression::fit_gd(&stats, &RidgeConfig::default()).expect("fit"));
    let lmfao_rmse = test.rmse(&lmfao_model.weights, lmfao_model.intercept);

    EndToEnd {
        join_secs,
        export_secs,
        shuffle_secs,
        sgd_secs,
        matrix_bytes,
        sgd_rmse,
        batch_secs,
        gd_secs,
        stats_bytes,
        lmfao_rmse,
        agnostic_total: join_secs + export_secs + shuffle_secs + sgd_secs,
        aware_total: batch_secs + gd_secs,
    }
}

/// Approximate byte size of the sufficient statistics (the "37 KB vs 23 GB"
/// comparison of Figure 3).
pub fn stats_size_bytes(stats: &fdb_core::SufficientStats) -> usize {
    let f = std::mem::size_of::<f64>();
    let mut bytes = f * (1 + stats.sum.len() + stats.q.len());
    for m in &stats.cat_counts {
        bytes += m.len() * (8 + f);
    }
    for per in &stats.cat_cont_sums {
        for m in per {
            bytes += m.len() * (8 + f);
        }
    }
    for m in stats.cat_pair_counts.values() {
        bytes += m.len() * (16 + f);
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_datasets::{retailer, RetailerConfig};

    #[test]
    fn pipelines_agree_on_model_quality_and_aware_is_smaller() {
        let ds = retailer(RetailerConfig::tiny());
        let r = end_to_end(&ds, 1);
        // Sufficient statistics are orders of magnitude smaller than the
        // materialized data matrix.
        assert!(
            r.stats_bytes * 10 < r.matrix_bytes,
            "stats {} vs matrix {}",
            r.stats_bytes,
            r.matrix_bytes
        );
        // Both models must beat a terrible baseline and be comparable;
        // the structure-aware model (converged GD) is at least as good as
        // one-epoch SGD up to 20% slack.
        assert!(r.lmfao_rmse <= r.sgd_rmse * 1.2, "{} vs {}", r.lmfao_rmse, r.sgd_rmse);
        assert!(r.aware_total > 0.0 && r.agnostic_total > 0.0);
    }

    #[test]
    fn dataset_table_includes_join_blowup() {
        let ds = retailer(RetailerConfig::tiny());
        let table = dataset_table(&ds);
        assert_eq!(table.len(), 6); // 5 relations + Join
        let join = table.last().unwrap();
        let inventory = &table[0];
        assert!(join.attrs > inventory.attrs);
        assert_eq!(join.rows, inventory.rows); // key-fkey join preserves fact rows
    }
}
